// Shared helpers for the spta_serve test batteries: synthetic samples,
// request builders, wire encode/decode, two ways to serve a script —
// ShardedServer::ServeScript (synchronous, on the calling thread) and a
// PipeFleet, the adopted-socketpair connection `spta_serve --pipe` serves
// through the event loop and the shard threads — and the served-bytes
// goldens.
//
// The goldens (tests/data/service_golden.*) are one request script that
// covers every verb — PING, OPEN/APPEND/STATUS/CLOSE, session and inline
// ANALYZE with warm repeats, hostile ANALYZE parameters and sample payloads
// (path ids and a fault count of 2^64 or more), HEALTH, METRICS,
// METRICS_PROM, TRACE, session errors — ending in a malformed frame, and
// its response frames. They were recorded through the thread-per-connection
// server the event loop replaced, after checking that it, ServeScript and
// the TCP loop served the same bytes; the out-of-range sample frames' ERR
// responses hold the reader's messages verbatim. Stored frames are normalized:
// analyze_us is dropped, and the four loop-answered verbs keep only their
// argument names (values vary with time and load) plus role/format.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "mbpta/mbpta.hpp"
#include "service/client.hpp"
#include "service/frame_reader.hpp"
#include "service/protocol.hpp"
#include "service/sharded_server.hpp"

namespace spta::testing {

/// Deterministic pseudo-random execution times with enough jitter for the
/// EVT fit: uniform-ish in [base, base + spread).
inline std::vector<mbpta::PathObservation> SyntheticSample(
    std::size_t n, std::uint64_t seed, double base = 10000.0,
    double spread = 500.0) {
  std::vector<mbpta::PathObservation> obs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = Mix64(HashCombine(seed, i));
    obs[i].time =
        base + spread * (static_cast<double>(bits >> 11) * 0x1.0p-53);
    obs[i].path_id = 0;
  }
  return obs;
}

inline service::Request MakeRequest(service::RequestKind kind) {
  service::Request request;
  request.kind = kind;
  return request;
}

inline service::Request AnalyzeInlineRequest(
    const std::vector<mbpta::PathObservation>& obs, service::Args args = {}) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.args = std::move(args);
  request.payload = service::EncodeSamplePayload(obs);
  return request;
}

inline std::string EncodeScript(const std::vector<service::Request>& script) {
  std::string bytes;
  for (const auto& request : script) {
    service::AppendRequestFrame(request, &bytes);
  }
  return bytes;
}

inline std::vector<service::Response> DecodeResponses(
    const std::string& bytes) {
  service::FrameReassembler reassembler;
  reassembler.Feed(bytes);
  std::vector<service::Response> responses;
  service::Response response;
  std::string type;
  std::string body;
  std::string error;
  while (reassembler.Finish(&type, &body, &error) ==
             service::FrameReassembler::Result::kFrame &&
         service::BuildResponse(type, body, &response, &error)) {
    responses.push_back(response);
  }
  return responses;
}

/// Serves `script` synchronously through the fleet's per-frame dispatch.
inline std::vector<service::Response> RunScript(
    service::ShardedServer& fleet,
    const std::vector<service::Request>& script) {
  std::string out;
  fleet.ServeScript(EncodeScript(script), &out);
  return DecodeResponses(out);
}

/// The wire frame with the volatile timing field stripped: the unit of
/// byte-for-byte comparison.
inline std::string NormalizedFrame(service::Response response) {
  response.args.Erase("analyze_us");
  std::string frame;
  service::AppendResponseFrame(response, &frame);
  return frame;
}

/// A started fleet serving one adopted socketpair end, exactly as
/// `spta_serve --pipe` does: the test writes frames into the peer end,
/// and stops the fleet once the stream ends and its responses are read.
class PipeFleet {
 public:
  explicit PipeFleet(service::ShardedServerOptions options = {}) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
    peer_ = fds[1];
    options.adopt_fd = fds[0];
    fleet_ = std::make_unique<service::ShardedServer>(options);
    EXPECT_EQ(fleet_->Start(), 0);
  }
  ~PipeFleet() {
    if (peer_ >= 0) ::close(peer_);
  }
  PipeFleet(const PipeFleet&) = delete;
  PipeFleet& operator=(const PipeFleet&) = delete;

  service::ShardedServer& fleet() { return *fleet_; }

  void Send(const std::string& bytes) {
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::send(peer_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // The fleet stopped reading.
      off += static_cast<std::size_t>(n);
    }
  }
  void Send(const std::vector<service::Request>& script) {
    Send(EncodeScript(script));
  }

  /// Ends the request stream, reads every response until the fleet closes
  /// its end, and waits for the fleet to stop.
  std::string FinishRaw() {
    ::shutdown(peer_, SHUT_WR);
    std::string bytes;
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(peer_, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      bytes.append(buffer, static_cast<std::size_t>(n));
    }
    fleet_->TriggerShutdown();
    EXPECT_EQ(fleet_->Wait(), 0);
    return bytes;
  }
  std::vector<service::Response> Finish() {
    return DecodeResponses(FinishRaw());
  }

 private:
  int peer_ = -1;
  std::unique_ptr<service::ShardedServer> fleet_;
};

/// Serves `script` over a fresh PipeFleet built from `options`.
inline std::vector<service::Response> RunPipe(
    const std::vector<service::Request>& script,
    service::ShardedServerOptions options = {}) {
  PipeFleet pipe(std::move(options));
  pipe.Send(script);
  return pipe.Finish();
}

/// The file's bytes; empty when it cannot be read.
inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

inline std::string GoldenRequests() {
  return ReadFileBytes(SPTA_TEST_DATA_DIR "/service_golden.requests");
}

inline std::string GoldenResponses() {
  return ReadFileBytes(SPTA_TEST_DATA_DIR "/service_golden.responses");
}

/// Per golden request: true for the verbs the event loop answers itself.
inline std::vector<bool> GoldenLoopVerbs() {
  service::FrameReassembler reassembler;
  reassembler.Feed(GoldenRequests());
  std::vector<bool> loop_verbs;
  std::string type;
  std::string body;
  std::string error;
  for (;;) {
    const auto result = reassembler.Finish(&type, &body, &error);
    if (result == service::FrameReassembler::Result::kNeedMore) break;
    if (result == service::FrameReassembler::Result::kMalformed) {
      loop_verbs.push_back(false);  // The closing malformed frame.
      break;
    }
    const auto kind = service::ParseRequestKind(type);
    loop_verbs.push_back(kind == service::RequestKind::kHealth ||
                         kind == service::RequestKind::kMetrics ||
                         kind == service::RequestKind::kMetricsProm ||
                         kind == service::RequestKind::kTrace);
  }
  return loop_verbs;
}

/// A response in the goldens' normalized form.
inline std::string GoldenFrame(service::Response response, bool loop_verb) {
  if (!loop_verb) return NormalizedFrame(std::move(response));
  service::Response stable;
  stable.ok = response.ok;
  for (const auto& [key, value] : response.args.values()) {
    if (key.rfind("requests_", 0) == 0) continue;  // Per-verb, load-timed.
    stable.args.Set(key, key == "role" || key == "format" ? value : "*");
  }
  std::string frame;
  service::AppendResponseFrame(stable, &frame);
  return frame;
}

/// Checks a transport's raw response bytes for the golden script against
/// the golden frames, frame by frame.
inline void ExpectGoldenResponses(const std::string& raw,
                                  const std::string& label) {
  const std::vector<bool> loop_verbs = GoldenLoopVerbs();
  const auto want = DecodeResponses(GoldenResponses());
  const auto got = DecodeResponses(raw);
  ASSERT_EQ(want.size(), loop_verbs.size());
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::string want_frame;
    service::AppendResponseFrame(want[i], &want_frame);
    EXPECT_EQ(GoldenFrame(got[i], loop_verbs[i]), want_frame)
        << label << " response " << i;
  }
}

}  // namespace spta::testing
