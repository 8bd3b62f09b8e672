// Malformed-frame robustness battery for the spta1 wire protocol.
//
// The frame decoders sit on the untrusted boundary of spta_serve: anything
// a client (or a port scanner) writes at the socket flows through
// FrameReassembler and BuildRequest before any server logic runs. The
// contract under attack input is narrow and absolute — report a malformed
// frame (with a diagnostic) or a clean EOF, never crash, never hang, never
// abort the process. This battery throws truncated headers, oversized and
// overflowing length fields, garbage bytes, embedded NULs and a seeded
// random fuzz loop at the request and response decoders; it runs under the
// repo's sanitizer configs (-DSPTA_SANITIZE=address) where any
// out-of-bounds read in the parsing path becomes a hard failure.
//
// The second half splits frames at every byte boundary and re-delivers
// them across simulated wakeups, trickles slow-loris connections one byte
// at a time while other connections make progress, and runs a seeded
// chunked fuzz. Its oracle is a test-local copy of the getline + read
// decoder the service started with (namespace oracle below): the
// reassembler must extract the same frames and reach the same
// accept/reject outcome from any chunking, on requests (the server's side)
// and responses (the client's side) alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <istream>
#include <sstream>
#include <string>
#include <vector>

#include "prng/xoshiro.hpp"
#include "service/frame_reader.hpp"
#include "service/protocol.hpp"

namespace spta::service {
namespace {

using Result = FrameReassembler::Result;

/// Decodes the first frame of `wire` as a connection does at EOF: the
/// whole wire fed to a FrameReassembler, Finish, then BuildRequest.
/// kNeedMore is a clean EOF; the assertion that it returns at all (no
/// crash/abort) is the point.
Result DecodeRequest(const std::string& wire, Request* request,
                     std::string* error) {
  FrameReassembler reassembler;
  reassembler.Feed(wire);
  std::string type;
  std::string body;
  const Result result = reassembler.Finish(&type, &body, error);
  if (result != Result::kFrame) return result;
  request->trace = reassembler.last_trace();
  return BuildRequest(type, body, request, error) ? Result::kFrame
                                                  : Result::kMalformed;
}

Result RequestStatus(const std::string& wire, std::string* error) {
  Request request;
  return DecodeRequest(wire, &request, error);
}

Result ResponseStatus(const std::string& wire, std::string* error) {
  FrameReassembler reassembler;
  reassembler.Feed(wire);
  std::string type;
  std::string body;
  const Result result = reassembler.Finish(&type, &body, error);
  if (result != Result::kFrame) return result;
  Response response;
  return BuildResponse(type, body, &response, error) ? Result::kFrame
                                                     : Result::kMalformed;
}

void ExpectRejectedOrEof(const std::string& wire, const char* what) {
  std::string error;
  const Result status = RequestStatus(wire, &error);
  EXPECT_TRUE(status == Result::kMalformed || status == Result::kNeedMore)
      << what << ": status " << static_cast<int>(status);
  if (status == Result::kMalformed) {
    EXPECT_FALSE(error.empty()) << what << ": kMalformed needs a diagnostic";
  }
}

TEST(ProtocolRobustnessTest, EmptyAndWhitespaceStreams) {
  for (const char* wire : {"", "\n", "\n\n\n", "   ", " \t \n"}) {
    ExpectRejectedOrEof(wire, "empty/whitespace stream");
  }
}

TEST(ProtocolRobustnessTest, TruncatedHeaders) {
  for (const char* wire :
       {"s", "spta", "spta1", "spta1 ", "spta1 PING", "spta1 PING ",
        "spta1 PING 4", "spta1 PING\n", "spta1 \n", "spta1\n"}) {
    ExpectRejectedOrEof(wire, "truncated header");
  }
}

TEST(ProtocolRobustnessTest, WrongMagic) {
  for (const char* wire :
       {"spta2 PING 0\n", "SPTA1 PING 0\n", "spta10 PING 0\n",
        "http/1.1 GET 0\n", "GET / HTTP/1.1\n\n", "xspta1 PING 0\n"}) {
    std::string error;
    EXPECT_EQ(RequestStatus(wire, &error), Result::kMalformed)
        << "magic: " << wire;
  }
  // NUL-prefixed magic (needs explicit length — a literal would truncate).
  std::string error;
  EXPECT_EQ(RequestStatus(std::string("\0spta1 PING 0\n", 14), &error),
            Result::kMalformed);
}

TEST(ProtocolRobustnessTest, UnknownVerbs) {
  for (const char* wire :
       {"spta1 FROB 0\n", "spta1 ping 0\n", "spta1 ANALYZE! 0\n",
        "spta1 0 0\n", "spta1 == 0\n"}) {
    std::string error;
    EXPECT_EQ(RequestStatus(wire, &error), Result::kMalformed)
        << "verb: " << wire;
  }
  // Responses only accept OK/ERR; request verbs must be rejected there.
  std::string error;
  EXPECT_EQ(ResponseStatus("spta1 PING 0\n", &error), Result::kMalformed);
}

TEST(ProtocolRobustnessTest, BadLengthFields) {
  for (const char* wire :
       {"spta1 PING -1\n", "spta1 PING abc\n", "spta1 PING 4x\n",
        "spta1 PING 0x10\n", "spta1 PING \n", "spta1 PING 1 2\n",
        "spta1 PING 99999999999999999999999999\n",     // > uint64
        "spta1 PING 18446744073709551616\n",           // 2^64
        "spta1 PING 18446744073709551615\n",           // UINT64_MAX
        "spta1 PING 67108865\n"}) {                    // kMaxFrameBytes + 1
    std::string error;
    EXPECT_EQ(RequestStatus(wire, &error), Result::kMalformed)
        << "length: " << wire;
  }
}

TEST(ProtocolRobustnessTest, OversizedLengthDoesNotAllocate) {
  // A hostile length just under the cap with no body must fail on the
  // truncated body, not crash — and a length over the cap must be refused
  // before any allocation attempt (64 MiB cap; a multi-exabyte length
  // would otherwise be a one-line denial of service).
  ExpectRejectedOrEof("spta1 APPEND 67108864\nshort body", "body truncated");
  std::string error;
  EXPECT_EQ(RequestStatus("spta1 APPEND 9223372036854775807\n", &error),
            Result::kMalformed);
  EXPECT_EQ(RequestStatus("spta1 APPEND 4000000000\n", &error),
            Result::kMalformed);
}

TEST(ProtocolRobustnessTest, TruncatedBodies) {
  ExpectRejectedOrEof("spta1 PING 10\n", "announced 10, got 0");
  ExpectRejectedOrEof("spta1 PING 10\nabc", "announced 10, got 3");
  ExpectRejectedOrEof("spta1 ANALYZE 100\nrequire_iid=0\n1 2 3",
                      "announced 100, got fewer");
}

TEST(ProtocolRobustnessTest, GarbageAndBinaryBytes) {
  std::string wire = "spta1 PING 8\n";
  wire += std::string("\x00\xff\x7f\n\x01\x02\x03\x04", 8);
  std::string error;
  Request request;
  // Binary bytes in the body are legal (8-bit clean framing): the frame
  // must parse, with the NUL preserved in args-line-or-payload handling,
  // and must not trip the sanitizer.
  EXPECT_EQ(DecodeRequest(wire, &request, &error), Result::kFrame) << error;
  EXPECT_EQ(request.kind, RequestKind::kPing);

  // Pure binary garbage where a header should be.
  std::string junk(64, '\0');
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>(0xf0 + (i % 16));
  }
  ExpectRejectedOrEof(junk, "binary junk header");
}

TEST(ProtocolRobustnessTest, MalformedArgsLineNeverThrows) {
  // Args::Parse silently skips bad tokens; hostile arg lines must never
  // reach a throw/abort even when the frame itself is well-formed.
  for (const char* args_line :
       {"= == === ====", "key=", "=value", "a=b=c=d", " leading  doubled ",
        "k\x01=v", "9999999999999999999999=x"}) {
    const std::string body = std::string(args_line) + "\n";
    std::ostringstream wire;
    wire << "spta1 STATUS " << body.size() << "\n" << body;
    std::string error;
    Request request;
    EXPECT_EQ(DecodeRequest(wire.str(), &request, &error), Result::kFrame)
        << "args line: " << args_line;
  }
}

TEST(ProtocolRobustnessTest, BackToBackFramesAfterRejection) {
  // One malformed frame must not poison the reader for the next stream:
  // readers are per-connection, so a fresh stream with a valid frame must
  // still parse after arbitrarily bad prior input was handled.
  ExpectRejectedOrEof("spta1 BOGUS 0\n", "bad verb");
  ExpectRejectedOrEof("spta1 INGEST 0\n", "retired verb");
  Request request;
  std::string error;
  EXPECT_EQ(DecodeRequest("spta1 PING 1\n\n", &request, &error),
            Result::kFrame)
      << error;
  EXPECT_EQ(request.kind, RequestKind::kPing);
}

TEST(ProtocolRobustnessTest, SeededFuzzNeverCrashes) {
  // Random mutations of a valid frame: flip bytes, truncate, splice. The
  // only assertion is the implicit one — every input returns a status
  // (and kMalformed carries a diagnostic) without crashing, for both
  // readers, under the sanitizer builds.
  const std::string valid = "spta1 ANALYZE 26\nrequire_iid=0\n1000\n2000\n";
  prng::Xoshiro128pp rng(20260806);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string wire = valid;
    const std::uint32_t mutations = 1 + rng.UniformBelow(8);
    for (std::uint32_t m = 0; m < mutations; ++m) {
      switch (rng.UniformBelow(4)) {
        case 0:  // flip a byte
          if (!wire.empty()) {
            wire[rng.UniformBelow(static_cast<std::uint32_t>(wire.size()))] =
                static_cast<char>(rng.Next() & 0xff);
          }
          break;
        case 1:  // truncate
          wire.resize(rng.UniformBelow(
              static_cast<std::uint32_t>(wire.size() + 1)));
          break;
        case 2:  // duplicate a chunk
          wire += wire.substr(
              rng.UniformBelow(static_cast<std::uint32_t>(wire.size() + 1)));
          break;
        default:  // insert random bytes
          for (int i = 0; i < 8; ++i) {
            wire.insert(wire.begin() +
                            rng.UniformBelow(
                                static_cast<std::uint32_t>(wire.size() + 1)),
                        static_cast<char>(rng.Next() & 0xff));
          }
          break;
      }
    }
    std::string error;
    const Result req_status = RequestStatus(wire, &error);
    if (req_status == Result::kMalformed) {
      EXPECT_FALSE(error.empty()) << "iter " << iter;
    }
    error.clear();
    (void)ResponseStatus(wire, &error);
  }
}

// --- Optional trace= header token ----------------------------------------

/// Parses `wire` and returns the request (asserting kOk) so trace-token
/// tests can inspect what the lenient parser extracted.
Request ParsedRequest(const std::string& wire) {
  Request request;
  std::string error;
  EXPECT_EQ(DecodeRequest(wire, &request, &error), Result::kFrame) << error;
  return request;
}

TEST(ProtocolRobustnessTest, ValidTraceTokenParsesAndRoundTrips) {
  Request request;
  request.kind = RequestKind::kPing;
  request.trace.trace_id = 0x0123456789abcdefULL;
  request.trace.span_id = 0x00000000000000aaULL;
  std::string wire;
  AppendRequestFrameWithTrace(request, &wire);
  // The token is the documented optional fourth header field.
  EXPECT_NE(wire.find(" trace=0123456789abcdef-00000000000000aa\n"),
            std::string::npos);
  const Request parsed = ParsedRequest(wire);
  EXPECT_EQ(parsed.trace.trace_id, request.trace.trace_id);
  EXPECT_EQ(parsed.trace.span_id, request.trace.span_id);
}

TEST(ProtocolRobustnessTest, UntracedRequestsStayByteIdentical) {
  // The absent-token wire format is the pre-tracing format, byte for
  // byte — old servers and clients interoperate, checksums/digests over
  // frames are unchanged.
  Request request;
  request.kind = RequestKind::kPing;
  std::string wire;
  AppendRequestFrameWithTrace(request, &wire);
  EXPECT_EQ(wire, "spta1 PING 1\n\n");
  // AppendRequestFrame (the digest/memo path) never emits the token,
  // even for a traced request.
  request.trace.trace_id = 0xdead;
  std::string frame;
  AppendRequestFrame(request, &frame);
  EXPECT_EQ(frame, "spta1 PING 1\n\n");
}

TEST(ProtocolRobustnessTest, MalformedTraceTokensNeverRejectTheFrame) {
  // Lenient by contract: junk in the optional field parses as absent —
  // the frame is still accepted with identical verb/args/payload.
  const char* kJunkTokens[] = {
      "trace=",
      "trace=zzz",
      "trace=0123456789abcdef",                     // missing span half
      "trace=0123456789abcdef-",                    // empty span half
      "trace=0123456789abcdef_00000000000000aa",    // wrong separator
      "trace=0123456789abcdeg-00000000000000aa",    // non-hex
      "trace=0123456789abcdef-00000000000000aag",   // trailing garbage
      "trace=0000000000000000-00000000000000aa",    // zero trace id
      "trace=0123456789abcdef-00000000000000aa-ff", // extra segment
      "trace",                                      // bare word
      "tracer=0123456789abcdef-00000000000000aa",   // near-miss key
      "trace=0123456789abcdef-00000000000000aa" // oversized (x4 below)
      "0123456789abcdef0123456789abcdef0123456789abcdef",
  };
  for (const char* junk : kJunkTokens) {
    const std::string wire = std::string("spta1 PING 1 ") + junk + "\n\n";
    const Request parsed = ParsedRequest(wire);
    EXPECT_FALSE(parsed.trace.valid()) << junk;
    EXPECT_EQ(parsed.kind, RequestKind::kPing) << junk;
  }
}

TEST(ProtocolRobustnessTest, FirstValidTraceTokenWinsOverJunk) {
  // Junk tokens are skipped, not allowed to shadow a good copy; once a
  // valid token parsed, later ones are ignored.
  const Request parsed = ParsedRequest(
      "spta1 PING 1 trace=bogus "
      "trace=0123456789abcdef-00000000000000aa "
      "trace=ffffffffffffffff-ffffffffffffffff\n\n");
  EXPECT_EQ(parsed.trace.trace_id, 0x0123456789abcdefULL);
  EXPECT_EQ(parsed.trace.span_id, 0x00000000000000aaULL);
}

TEST(ProtocolRobustnessTest, SeededTraceTokenFuzzNeverCrashes) {
  // Mutations concentrated on the trace token region: the lenient parser
  // must never crash, and whenever the frame still parses, a mangled
  // token must yield either absent or *some* context — never an error.
  const std::string valid =
      "spta1 ANALYZE 26 trace=0123456789abcdef-00000000000000aa\n"
      "require_iid=0\n1000\n2000\n";
  prng::Xoshiro128pp rng(20260809);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string wire = valid;
    const std::size_t token_at = wire.find("trace=");
    const std::uint32_t mutations = 1 + rng.UniformBelow(4);
    for (std::uint32_t m = 0; m < mutations; ++m) {
      const std::uint32_t span = 40;  // token + a little slack
      const std::size_t at =
          token_at + rng.UniformBelow(span) % (wire.size() - token_at);
      switch (rng.UniformBelow(3)) {
        case 0:
          wire[at] = static_cast<char>(rng.Next() & 0xff);
          break;
        case 1:
          wire.erase(at, 1 + rng.UniformBelow(4));
          break;
        default:
          wire.insert(at, 1 + rng.UniformBelow(4),
                      static_cast<char>(rng.Next() & 0x7f));
          break;
      }
    }
    std::string error;
    (void)RequestStatus(wire, &error);  // must return, never crash
  }
}

// --- The oracle: the getline + read decoder the service started with ----

namespace oracle {

enum class Status { kOk, kEof, kMalformed };

/// One frame off `in`: the header line through std::getline (EOF ends the
/// line), then exactly the announced body through istream::read.
Status ReadFrame(std::istream& in, std::string* type, std::string* body,
                 std::string* error, obs::TraceContext* trace) {
  std::string header;
  if (!std::getline(in, header)) return Status::kEof;
  std::uint64_t nbytes = 0;
  if (!ParseFrameHeaderLine(header, type, &nbytes, error, trace)) {
    return Status::kMalformed;
  }
  body->assign(static_cast<std::size_t>(nbytes), '\0');
  in.read(body->data(), static_cast<std::streamsize>(nbytes));
  if (static_cast<std::uint64_t>(in.gcount()) != nbytes) {
    *error = "truncated frame body (wanted " + std::to_string(nbytes) +
             " bytes, got " + std::to_string(in.gcount()) + ")";
    return Status::kMalformed;
  }
  return Status::kOk;
}

Status ReadRequest(std::istream& in, Request* request, std::string* error) {
  std::string verb;
  std::string body;
  const Status status = ReadFrame(in, &verb, &body, error, &request->trace);
  if (status != Status::kOk) return status;
  const auto kind = ParseRequestKind(verb);
  if (!kind.has_value()) {
    *error = "unknown request verb '" + verb + "'";
    return Status::kMalformed;
  }
  request->kind = *kind;
  SplitFrameBody(body, &request->args, &request->payload);
  return Status::kOk;
}

Status ReadResponse(std::istream& in, Response* response,
                    std::string* error) {
  std::string type;
  std::string body;
  const Status status = ReadFrame(in, &type, &body, error, nullptr);
  if (status != Status::kOk) return status;
  if (type == "OK") {
    response->ok = true;
  } else if (type == "ERR") {
    response->ok = false;
  } else {
    *error = "unknown response type '" + type + "'";
    return Status::kMalformed;
  }
  SplitFrameBody(body, &response->args, &response->payload);
  return Status::kOk;
}

}  // namespace oracle

// --- Incremental reassembly: split delivery, slow loris, fuzz ------------

/// What a reader extracted from a stream: the re-encoded frames it
/// accepted, and whether the stream ended cleanly or malformed. Error
/// TEXT is deliberately not part of the comparison (the reassembler's
/// header cap is allowed to diagnose differently).
struct StreamOutcome {
  std::vector<std::string> frames;  ///< AppendRequestFrame re-encodings.
  bool malformed = false;

  bool operator==(const StreamOutcome& other) const {
    return frames == other.frames && malformed == other.malformed;
  }
};

StreamOutcome OracleOutcome(const std::string& wire) {
  StreamOutcome outcome;
  std::istringstream in(wire);
  for (;;) {
    Request request;
    std::string error;
    const oracle::Status status = oracle::ReadRequest(in, &request, &error);
    if (status == oracle::Status::kOk) {
      std::string frame;
      AppendRequestFrame(request, &frame);
      outcome.frames.push_back(std::move(frame));
      continue;
    }
    outcome.malformed = (status == oracle::Status::kMalformed);
    return outcome;
  }
}

/// Runs the reassembler over `wire` delivered in the given chunks (sizes
/// need not cover the wire; the tail is delivered as one final slice),
/// then applies EOF via Finish — exactly the event loop's read pattern.
StreamOutcome IncrementalOutcome(const std::string& wire,
                                 const std::vector<std::size_t>& chunks) {
  StreamOutcome outcome;
  FrameReassembler reassembler;
  std::size_t offset = 0;
  auto drain = [&](bool finishing) {
    for (;;) {
      std::string type;
      std::string body;
      std::string error;
      const FrameReassembler::Result result =
          finishing ? reassembler.Finish(&type, &body, &error)
                    : reassembler.Next(&type, &body, &error);
      if (result == FrameReassembler::Result::kNeedMore) return;
      if (result == FrameReassembler::Result::kMalformed) {
        outcome.malformed = true;
        return;
      }
      Request request;
      if (!BuildRequest(type, body, &request, &error)) {
        outcome.malformed = true;
        return;
      }
      std::string frame;
      AppendRequestFrame(request, &frame);
      outcome.frames.push_back(std::move(frame));
      if (finishing) return;  // at most one EOF-completed frame
    }
  };
  for (const std::size_t chunk : chunks) {
    if (outcome.malformed || offset >= wire.size()) break;
    const std::size_t take = std::min(chunk, wire.size() - offset);
    reassembler.Feed(std::string_view(wire).substr(offset, take));
    offset += take;
    drain(false);
  }
  if (!outcome.malformed && offset < wire.size()) {
    reassembler.Feed(std::string_view(wire).substr(offset));
    drain(false);
  }
  if (!outcome.malformed) drain(true);
  return outcome;
}

/// One golden frame per verb (session verbs with args, ANALYZE with an
/// args line + payload, a second APPEND with an 8-bit payload).
std::vector<std::string> GoldenFrames() {
  std::vector<std::string> frames;
  auto add = [&](RequestKind kind, std::vector<std::pair<std::string,
                                                         std::string>> args,
                 std::string payload) {
    Request request;
    request.kind = kind;
    for (auto& [k, v] : args) request.args.Set(k, v);
    request.payload = std::move(payload);
    std::string frame;
    AppendRequestFrame(request, &frame);
    frames.push_back(std::move(frame));
  };
  add(RequestKind::kPing, {}, "");
  add(RequestKind::kOpen, {{"session", "golden"}}, "");
  add(RequestKind::kAppend, {{"session", "golden"}}, "1000\n2000\n3000\n");
  add(RequestKind::kStatus, {{"session", "golden"}}, "");
  add(RequestKind::kAnalyze, {{"session", "golden"}, {"require_iid", "0"}},
      "");
  add(RequestKind::kAnalyze, {{"prob", "1e-12"}}, "1000\n2000\n3000\n4000\n");
  add(RequestKind::kAppend, {{"session", "golden"}},
      std::string("BIN\x00\x01\x7f\xff payload\n", 17));
  add(RequestKind::kClose, {{"session", "golden"}}, "");
  add(RequestKind::kMetrics, {}, "");
  add(RequestKind::kMetricsProm, {}, "");
  add(RequestKind::kShutdown, {}, "");
  return frames;
}

TEST(FrameReassemblerTest, EveryVerbSplitAtEveryByteBoundary) {
  // TCP hands the event loop arbitrary prefixes: every golden frame,
  // split at every byte boundary across two "wakeups", must reassemble
  // to exactly what the oracle decoder parses from the whole wire.
  for (const std::string& wire : GoldenFrames()) {
    const StreamOutcome expected = OracleOutcome(wire);
    ASSERT_EQ(expected.frames.size(), 1u);
    ASSERT_FALSE(expected.malformed);
    for (std::size_t split = 0; split <= wire.size(); ++split) {
      const StreamOutcome got = IncrementalOutcome(wire, {split});
      EXPECT_EQ(got, expected)
          << "frame " << wire.substr(0, wire.find('\n')) << " split at "
          << split;
    }
  }
}

TEST(FrameReassemblerTest, TraceTokenSurvivesEverySplitBoundary) {
  // The optional trace= token must reassemble identically no matter
  // where TCP cuts the header — including mid-token.
  Request request;
  request.kind = RequestKind::kAnalyze;
  request.args.Set("require_iid", "0");
  request.payload = "1000\n2000\n";
  request.trace.trace_id = 0x0123456789abcdefULL;
  request.trace.span_id = 0x00000000000000aaULL;
  std::string wire;
  AppendRequestFrameWithTrace(request, &wire);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameReassembler reassembler;
    reassembler.Feed(std::string_view(wire).substr(0, split));
    std::string type, body, error;
    FrameReassembler::Result result = reassembler.Next(&type, &body, &error);
    if (split < wire.size()) {
      reassembler.Feed(std::string_view(wire).substr(split));
      result = reassembler.Next(&type, &body, &error);
    }
    ASSERT_EQ(result, FrameReassembler::Result::kFrame)
        << "split " << split << ": " << error;
    EXPECT_EQ(reassembler.last_trace().trace_id, request.trace.trace_id)
        << "split " << split;
    EXPECT_EQ(reassembler.last_trace().span_id, request.trace.span_id)
        << "split " << split;
  }
  // An untraced frame following a traced one resets last_trace: contexts
  // never leak across frames on a reused connection.
  FrameReassembler reassembler;
  std::string untraced;
  AppendRequestFrame(request, &untraced);
  reassembler.Feed(wire);
  reassembler.Feed(untraced);
  std::string type, body, error;
  ASSERT_EQ(reassembler.Next(&type, &body, &error),
            FrameReassembler::Result::kFrame);
  EXPECT_TRUE(reassembler.last_trace().valid());
  ASSERT_EQ(reassembler.Next(&type, &body, &error),
            FrameReassembler::Result::kFrame);
  EXPECT_FALSE(reassembler.last_trace().valid());
}

TEST(FrameReassemblerTest, GluedStreamSplitAtEveryByteBoundary) {
  // All golden frames glued into one stream, delivered as two slices cut
  // at every boundary: same frame sequence out, regardless of the cut.
  std::string wire;
  for (const std::string& frame : GoldenFrames()) wire += frame;
  const StreamOutcome expected = OracleOutcome(wire);
  ASSERT_EQ(expected.frames.size(), GoldenFrames().size());
  ASSERT_FALSE(expected.malformed);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    const StreamOutcome got = IncrementalOutcome(wire, {split});
    EXPECT_EQ(got, expected) << "glued stream split at " << split;
  }
}

TEST(FrameReassemblerTest, SlowLorisInterleavedConnectionsAllComplete) {
  // Sixteen connections each trickling one byte per wakeup, round-robin —
  // the slow-loris shape. Each reassembler must make independent
  // progress: every connection completes its own frame, none blocks or
  // corrupts a neighbor's stream.
  const auto goldens = GoldenFrames();
  constexpr std::size_t kConns = 16;
  std::vector<FrameReassembler> conns(kConns);
  std::vector<std::string> wires(kConns);
  std::vector<std::vector<std::string>> got(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    wires[c] = goldens[c % goldens.size()];
  }
  std::vector<std::size_t> offsets(kConns, 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t c = 0; c < kConns; ++c) {
      if (offsets[c] >= wires[c].size()) continue;
      progress = true;
      conns[c].Feed(std::string_view(&wires[c][offsets[c]], 1));
      ++offsets[c];
      std::string type;
      std::string body;
      std::string error;
      const auto result = conns[c].Next(&type, &body, &error);
      ASSERT_NE(result, FrameReassembler::Result::kMalformed)
          << "conn " << c << ": " << error;
      if (result == FrameReassembler::Result::kFrame) {
        Request request;
        ASSERT_TRUE(BuildRequest(type, body, &request, &error)) << error;
        std::string frame;
        AppendRequestFrame(request, &frame);
        got[c].push_back(std::move(frame));
      }
    }
  }
  for (std::size_t c = 0; c < kConns; ++c) {
    ASSERT_EQ(got[c].size(), 1u) << "conn " << c;
    EXPECT_EQ(got[c][0], wires[c]) << "conn " << c;
    EXPECT_EQ(conns[c].buffered_bytes(), 0u) << "conn " << c;
  }
}

TEST(FrameReassemblerTest, HeaderCapCutsOffHeaderlessStream) {
  // The one deliberate divergence from the oracle decoder: a stream that
  // never produces a newline must be cut off at max_header_bytes instead
  // of buffering forever.
  FrameReassembler::Limits limits;
  limits.max_header_bytes = 64;
  FrameReassembler reassembler(limits);
  std::string type;
  std::string body;
  std::string error;
  reassembler.Feed(std::string(63, 'a'));
  EXPECT_EQ(reassembler.Next(&type, &body, &error),
            FrameReassembler::Result::kNeedMore);
  reassembler.Feed(std::string(64, 'a'));
  EXPECT_EQ(reassembler.Next(&type, &body, &error),
            FrameReassembler::Result::kMalformed);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(reassembler.poisoned());
  // Sticky: the connection is dead even if a valid frame arrives later.
  reassembler.Feed("spta1 PING 0\n");
  EXPECT_EQ(reassembler.Next(&type, &body, &error),
            FrameReassembler::Result::kMalformed);
}

TEST(FrameReassemblerTest, FinishAppliesBlockingEofSemantics) {
  std::string type;
  std::string body;
  std::string error;
  {
    // A final zero-length-body header with no trailing newline: getline
    // treats EOF as the terminator, so Finish completes the frame.
    FrameReassembler reassembler;
    reassembler.Feed("spta1 PING 0");
    EXPECT_EQ(reassembler.Next(&type, &body, &error),
              FrameReassembler::Result::kNeedMore);
    EXPECT_EQ(reassembler.Finish(&type, &body, &error),
              FrameReassembler::Result::kFrame);
    EXPECT_EQ(type, "PING");
    EXPECT_TRUE(body.empty());
  }
  {
    // Clean EOF between frames: kNeedMore, not an error.
    FrameReassembler reassembler;
    EXPECT_EQ(reassembler.Finish(&type, &body, &error),
              FrameReassembler::Result::kNeedMore);
  }
  {
    // EOF mid-body: truncated frame, malformed — same as the oracle
    // reader's announced-N-got-fewer rejection.
    FrameReassembler reassembler;
    reassembler.Feed("spta1 APPEND 10\nabc");
    EXPECT_EQ(reassembler.Next(&type, &body, &error),
              FrameReassembler::Result::kNeedMore);
    EXPECT_EQ(reassembler.Finish(&type, &body, &error),
              FrameReassembler::Result::kMalformed);
    EXPECT_FALSE(error.empty());
  }
}

TEST(FrameReassemblerTest, SeededChunkedFuzzMatchesBlockingReader) {
  // Hostile streams (mutated golden frames, garbage, splices) delivered
  // in random chunk sizes: the incremental reader must extract the SAME
  // frames and reach the SAME accept/reject outcome as the oracle
  // reader fed the whole wire — under the sanitizer builds this is also
  // the memory-safety fuzz for the reassembly path.
  const auto goldens = GoldenFrames();
  prng::Xoshiro128pp rng(20260809);
  for (int iter = 0; iter < 1500; ++iter) {
    // Compose a stream of 1-3 golden frames...
    std::string wire;
    const std::uint32_t count = 1 + rng.UniformBelow(3);
    for (std::uint32_t i = 0; i < count; ++i) {
      wire += goldens[rng.UniformBelow(
          static_cast<std::uint32_t>(goldens.size()))];
    }
    // ...then mutate it half the time (flip/truncate/insert).
    if (rng.UniformBelow(2) == 0) {
      const std::uint32_t mutations = 1 + rng.UniformBelow(4);
      for (std::uint32_t m = 0; m < mutations && !wire.empty(); ++m) {
        switch (rng.UniformBelow(3)) {
          case 0:
            wire[rng.UniformBelow(static_cast<std::uint32_t>(wire.size()))] =
                static_cast<char>(rng.Next() & 0xff);
            break;
          case 1:
            wire.resize(rng.UniformBelow(
                static_cast<std::uint32_t>(wire.size() + 1)));
            break;
          default:
            wire.insert(
                wire.begin() + rng.UniformBelow(static_cast<std::uint32_t>(
                                   wire.size() + 1)),
                static_cast<char>(rng.Next() & 0xff));
            break;
        }
      }
    }
    // Random chunking: 1..17-byte slices simulate arbitrary wakeups.
    std::vector<std::size_t> chunks;
    std::size_t covered = 0;
    while (covered < wire.size()) {
      const std::size_t chunk = 1 + rng.UniformBelow(17);
      chunks.push_back(chunk);
      covered += chunk;
    }
    const StreamOutcome expected = OracleOutcome(wire);
    const StreamOutcome got = IncrementalOutcome(wire, chunks);
    EXPECT_EQ(got, expected) << "iter " << iter;
  }
}

// --- Response side: what the client decodes -------------------------------

/// What a response decoder made of a stream: the re-encoded responses it
/// accepted and the diagnostic that ended it ("" on a clean EOF).
struct ResponseOutcome {
  std::vector<std::string> frames;  ///< AppendResponseFrame re-encodings.
  std::string error;

  bool operator==(const ResponseOutcome&) const = default;
};

ResponseOutcome OracleResponses(const std::string& wire) {
  ResponseOutcome outcome;
  std::istringstream in(wire);
  for (;;) {
    Response response;
    const oracle::Status status =
        oracle::ReadResponse(in, &response, &outcome.error);
    if (status != oracle::Status::kOk) return outcome;
    outcome.frames.emplace_back();
    AppendResponseFrame(response, &outcome.frames.back());
  }
}

/// `wire` delivered as two slices cut at `split`, then EOF — the client's
/// read pattern: Next after every slice, Finish at EOF, BuildResponse on
/// every frame.
ResponseOutcome SplitResponses(const std::string& wire, std::size_t split) {
  ResponseOutcome outcome;
  FrameReassembler reassembler;
  std::string type;
  std::string body;
  // False once the stream has ended (clean EOF or an error).
  const auto drain = [&](bool at_eof) {
    for (;;) {
      const Result result =
          at_eof ? reassembler.Finish(&type, &body, &outcome.error)
                 : reassembler.Next(&type, &body, &outcome.error);
      if (result == Result::kNeedMore) return !at_eof;
      Response response;
      if (result == Result::kMalformed ||
          !BuildResponse(type, body, &response, &outcome.error)) {
        return false;
      }
      outcome.frames.emplace_back();
      AppendResponseFrame(response, &outcome.frames.back());
    }
  };
  reassembler.Feed(std::string_view(wire).substr(0, split));
  if (!drain(false)) return outcome;
  reassembler.Feed(std::string_view(wire).substr(split));
  if (drain(false)) drain(true);
  return outcome;
}

std::string ReadGoldenResponses() {
  std::ifstream in(SPTA_TEST_DATA_DIR "/service_golden.responses",
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Response frames of every shape: OK and ERR, each with a payload and
/// with an empty body, and every frame of the served-bytes goldens.
std::vector<std::string> ResponseFrames() {
  std::vector<std::string> frames(4);
  Args args;
  args.Set("cache", "miss");
  args.SetDouble("pwcet", 12345.6789);
  AppendResponseFrame(OkResponse(args, "report line 1\nreport line 2\n"),
                      &frames[0]);
  frames[1] = "spta1 OK 0\n";
  AppendResponseFrame(ErrResponse("busy", "shard queue full"), &frames[2]);
  frames[3] = "spta1 ERR 0\n";
  FrameReassembler golden;
  golden.Feed(ReadGoldenResponses());
  std::string type;
  std::string body;
  std::string error;
  while (golden.Finish(&type, &body, &error) == Result::kFrame) {
    frames.push_back("spta1 " + type + " " + std::to_string(body.size()) +
                     "\n" + body);
  }
  return frames;
}

TEST(FrameReassemblerTest, EveryResponseSplitAtEveryByteBoundary) {
  const auto frames = ResponseFrames();
  ASSERT_GT(frames.size(), 10u) << "the golden responses did not load";
  for (const std::string& wire : frames) {
    const ResponseOutcome expected = OracleResponses(wire);
    ASSERT_EQ(expected.frames.size(), 1u) << wire;
    ASSERT_EQ(expected.error, "");
    for (std::size_t split = 0; split <= wire.size(); ++split) {
      EXPECT_EQ(SplitResponses(wire, split), expected)
          << "frame " << wire.substr(0, wire.find('\n')) << " split at "
          << split;
    }
  }
  // All of them glued into one stream.
  std::string glued;
  for (const std::string& frame : frames) glued += frame;
  const ResponseOutcome expected = OracleResponses(glued);
  ASSERT_EQ(expected.frames.size(), frames.size());
  for (std::size_t split = 0; split <= glued.size(); ++split) {
    EXPECT_EQ(SplitResponses(glued, split), expected)
        << "glued responses split at " << split;
  }
}

TEST(FrameReassemblerTest, UnknownResponseTypeIsRejectedAtEverySplit) {
  const std::string wire = "spta1 MAYBE 4\nx=1\n";
  const ResponseOutcome expected = OracleResponses(wire);
  ASSERT_TRUE(expected.frames.empty());
  ASSERT_EQ(expected.error, "unknown response type 'MAYBE'");
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    EXPECT_EQ(SplitResponses(wire, split), expected) << "split at " << split;
  }
  // A request verb is no response type either.
  std::string error;
  EXPECT_EQ(ResponseStatus("spta1 PING 0\n", &error), Result::kMalformed);
  EXPECT_EQ(error, "unknown response type 'PING'");
}

}  // namespace
}  // namespace spta::service
