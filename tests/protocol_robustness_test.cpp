// Malformed-frame robustness battery for the spta1 wire protocol.
//
// The frame readers sit on the untrusted boundary of spta_serve: anything a
// client (or a port scanner) writes at the socket flows through ReadRequest
// before any server logic runs. The contract under attack input is narrow
// and absolute — return kMalformed (with a diagnostic) or kEof, never
// crash, never hang, never abort the process. This battery throws
// truncated headers, oversized and overflowing length fields, garbage
// bytes, embedded NULs and a seeded random fuzz loop at both readers; it
// runs under the repo's sanitizer configs (-DSPTA_SANITIZE=address) where
// any out-of-bounds read in the parsing path becomes a hard failure.
//
// The second half of the battery targets the incremental FrameReassembler
// (frame_reader.hpp) that the epoll event loop uses instead of blocking
// istream reads: every golden frame is split at every byte boundary and
// re-delivered across simulated wakeups, slow-loris connections trickle
// one byte at a time while other connections make progress, and a seeded
// chunked fuzz re-checks reader equivalence (same frames, same
// accept/reject outcome as the blocking reader) over hostile streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "prng/xoshiro.hpp"
#include "service/frame_reader.hpp"
#include "service/protocol.hpp"

namespace spta::service {
namespace {

/// Feeds `wire` to ReadRequest and returns the status; the assertion that
/// it returns at all (no crash/abort) is the point.
ReadStatus RequestStatus(const std::string& wire, std::string* error) {
  std::istringstream in(wire);
  Request request;
  return ReadRequest(in, &request, error);
}

ReadStatus ResponseStatus(const std::string& wire, std::string* error) {
  std::istringstream in(wire);
  Response response;
  return ReadResponse(in, &response, error);
}

void ExpectRejectedOrEof(const std::string& wire, const char* what) {
  std::string error;
  const ReadStatus status = RequestStatus(wire, &error);
  EXPECT_TRUE(status == ReadStatus::kMalformed || status == ReadStatus::kEof)
      << what << ": status " << static_cast<int>(status);
  if (status == ReadStatus::kMalformed) {
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
    EXPECT_EQ(RequestStatus(wire, &error), ReadStatus::kMalformed)
        << "magic: " << wire;
  }
  // NUL-prefixed magic (needs explicit length — a literal would truncate).
  std::string error;
  EXPECT_EQ(RequestStatus(std::string("\0spta1 PING 0\n", 14), &error),
            ReadStatus::kMalformed);
}

TEST(ProtocolRobustnessTest, UnknownVerbs) {
  for (const char* wire :
       {"spta1 FROB 0\n", "spta1 ping 0\n", "spta1 ANALYZE! 0\n",
        "spta1 0 0\n", "spta1 == 0\n"}) {
    std::string error;
    EXPECT_EQ(RequestStatus(wire, &error), ReadStatus::kMalformed)
        << "verb: " << wire;
  }
  // Responses only accept OK/ERR; request verbs must be rejected there.
  std::string error;
  EXPECT_EQ(ResponseStatus("spta1 PING 0\n", &error), ReadStatus::kMalformed);
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
    EXPECT_EQ(RequestStatus(wire, &error), ReadStatus::kMalformed)
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
            ReadStatus::kMalformed);
  EXPECT_EQ(RequestStatus("spta1 APPEND 4000000000\n", &error),
            ReadStatus::kMalformed);
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
  std::istringstream in(wire);
  // Binary bytes in the body are legal (8-bit clean framing): the frame
  // must parse, with the NUL preserved in args-line-or-payload handling,
  // and must not trip the sanitizer.
  EXPECT_EQ(ReadRequest(in, &request, &error), ReadStatus::kOk) << error;
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
    std::istringstream in(wire.str());
    EXPECT_EQ(ReadRequest(in, &request, &error), ReadStatus::kOk)
        << "args line: " << args_line;
  }
}

TEST(ProtocolRobustnessTest, BackToBackFramesAfterRejection) {
  // One malformed frame must not poison the reader for the next stream:
  // readers are per-connection, so a fresh stream with a valid frame must
  // still parse after arbitrarily bad prior input was handled.
  ExpectRejectedOrEof("spta1 BOGUS 0\n", "bad verb");
  ExpectRejectedOrEof("spta1 INGEST 0\n", "retired verb");
  std::istringstream in("spta1 PING 1\n\n");
  Request request;
  std::string error;
  EXPECT_EQ(ReadRequest(in, &request, &error), ReadStatus::kOk) << error;
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
    const ReadStatus req_status = RequestStatus(wire, &error);
    if (req_status == ReadStatus::kMalformed) {
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
  std::istringstream in(wire);
  Request request;
  std::string error;
  EXPECT_EQ(ReadRequest(in, &request, &error), ReadStatus::kOk) << error;
  return request;
}

TEST(ProtocolRobustnessTest, ValidTraceTokenParsesAndRoundTrips) {
  Request request;
  request.kind = RequestKind::kPing;
  request.trace.trace_id = 0x0123456789abcdefULL;
  request.trace.span_id = 0x00000000000000aaULL;
  std::ostringstream out;
  ASSERT_TRUE(WriteRequest(out, request));
  const std::string wire = out.str();
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
  std::ostringstream out;
  ASSERT_TRUE(WriteRequest(out, request));
  EXPECT_EQ(out.str(), "spta1 PING 1\n\n");
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

StreamOutcome BlockingOutcome(const std::string& wire) {
  StreamOutcome outcome;
  std::istringstream in(wire);
  for (;;) {
    Request request;
    std::string error;
    const ReadStatus status = ReadRequest(in, &request, &error);
    if (status == ReadStatus::kOk) {
      std::string frame;
      AppendRequestFrame(request, &frame);
      outcome.frames.push_back(std::move(frame));
      continue;
    }
    outcome.malformed = (status == ReadStatus::kMalformed);
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
  // to exactly what the blocking reader parses from the whole wire.
  for (const std::string& wire : GoldenFrames()) {
    const StreamOutcome expected = BlockingOutcome(wire);
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
  const StreamOutcome expected = BlockingOutcome(wire);
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
  // The one deliberate divergence from the blocking reader: a stream that
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
    // EOF mid-body: truncated frame, malformed — same as the blocking
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
  // frames and reach the SAME accept/reject outcome as the blocking
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
    const StreamOutcome expected = BlockingOutcome(wire);
    const StreamOutcome got = IncrementalOutcome(wire, chunks);
    EXPECT_EQ(got, expected) << "iter " << iter;
  }
}

}  // namespace
}  // namespace spta::service
