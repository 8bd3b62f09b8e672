// Observability subsystem battery (src/obs): the lock-free tracer under
// real ThreadPool concurrency, the Chrome/Perfetto export schema, the
// per-run counter surface against the simulator's own stats, and the
// Prometheus text renderer. Labeled `obs` — this is also the suite to run
// under -DSPTA_SANITIZE=thread (README has the recipe): the tracer's
// correctness claim is precisely "no locks, no lost or torn events up to
// capacity", which only TSan + contention can falsify.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "common/histogram.hpp"
#include "common/jsonlog.hpp"
#include "common/thread_pool.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/trace_merge.hpp"
#include "sim/platform.hpp"

namespace spta {
namespace {

/// Resets the process-wide tracer around each test so suites don't leak
/// events into each other.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Instance().Disable();
    obs::Tracer::Instance().Clear();
  }
  void TearDown() override {
    obs::Tracer::Instance().Disable();
    obs::Tracer::Instance().Clear();
  }
};

TEST_F(TracerTest, DisabledRecordsNothing) {
  { SPTA_OBS_SPAN("test", "ignored"); }
  SPTA_OBS_INSTANT("test", "also_ignored");
  const auto stats = obs::Tracer::Instance().GetStats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST_F(TracerTest, RecordsSpansAndInstants) {
  obs::Tracer::Instance().Enable();
  {
    SPTA_OBS_SPAN_ARG("test", "outer", "run", 7);
    SPTA_OBS_INSTANT("test", "marker");
  }
  const auto stats = obs::Tracer::Instance().GetStats();
  EXPECT_EQ(stats.recorded, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.threads, 1u);
}

TEST_F(TracerTest, ClearForgetsEvents) {
  obs::Tracer::Instance().Enable();
  { SPTA_OBS_SPAN("test", "span"); }
  ASSERT_EQ(obs::Tracer::Instance().GetStats().recorded, 1u);
  obs::Tracer::Instance().Clear();
  EXPECT_EQ(obs::Tracer::Instance().GetStats().recorded, 0u);
  // The recording thread re-registers transparently after a Clear.
  { SPTA_OBS_SPAN("test", "after_clear"); }
  EXPECT_EQ(obs::Tracer::Instance().GetStats().recorded, 1u);
}

// The concurrency contract: N pool workers hammering the tracer lose
// nothing until their per-thread buffers fill, and every overflow is
// counted — recorded + dropped always equals emitted exactly.
TEST_F(TracerTest, ThreadPoolAccountsForEveryEvent) {
  constexpr std::size_t kCapacity = 256;  // small: force overflow
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kEventsPerTask = 50;
  obs::Tracer::Instance().Enable(kCapacity);

  ThreadPool pool(4);
  std::atomic<std::uint64_t> emitted{0};
  ParallelFor(pool, kTasks, [&](std::size_t task) {
    for (std::size_t i = 0; i < kEventsPerTask; ++i) {
      SPTA_OBS_SPAN_ARG("test", "work", "task", task);
      emitted.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto stats = obs::Tracer::Instance().GetStats();
  EXPECT_EQ(stats.recorded + stats.dropped, emitted.load());
  EXPECT_EQ(emitted.load(), kTasks * kEventsPerTask);
  // 4 workers x 256 capacity < 3200 events: overflow must have happened
  // and been counted, and no buffer may hold more than its capacity.
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_LE(stats.recorded, stats.threads * kCapacity);
  EXPECT_GE(stats.threads, 1u);
}

// Exporting while producers are still recording reads only the published
// prefix — no torn events, always a parseable document.
TEST_F(TracerTest, ExportRacesProducersSafely) {
  obs::Tracer::Instance().Enable();
  ThreadPool pool(2);
  std::atomic<bool> stop{false};
  pool.Submit([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      SPTA_OBS_SPAN("test", "racer");
    }
  });
  for (int i = 0; i < 20; ++i) {
    std::ostringstream out;
    EXPECT_TRUE(obs::Tracer::Instance().WriteChromeTrace(out));
    EXPECT_NE(out.str().find("\"traceEvents\""), std::string::npos);
  }
  stop.store(true);
  pool.Wait();
}

// Perfetto/chrome://tracing schema smoke: the export is one JSON object
// with a traceEvents array whose entries carry name/cat/ph/ts/pid/tid.
// (Deep JSON validity is exercised end-to-end by loading spta_cli
// --trace-out output in Perfetto; here we pin the required fields.)
TEST_F(TracerTest, ChromeTraceCarriesRequiredFields) {
  obs::Tracer::Instance().Enable();
  {
    SPTA_OBS_SPAN_ARG("cat_a", "span_a", "arg", 42);
  }
  SPTA_OBS_INSTANT("cat_b", "instant_b");
  std::ostringstream out;
  ASSERT_TRUE(obs::Tracer::Instance().WriteChromeTrace(out));
  const std::string json = out.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Both events present, with every required trace_event field.
  EXPECT_NE(json.find("\"name\":\"span_a\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat_a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"arg\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"instant_b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Instants carry the Perfetto scope field.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  for (const char* field : {"\"ts\":", "\"pid\":", "\"tid\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Balanced braces/brackets — cheap structural sanity for the whole doc.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ----------------------------------------------------------- trace context

TEST(TraceContext, EncodeParseRoundTrip) {
  obs::TraceContext ctx;
  ctx.trace_id = 0x0123456789abcdefULL;
  ctx.span_id = 0xfedcba9876543210ULL;
  const std::string token = obs::EncodeTraceContext(ctx);
  EXPECT_EQ(token, "0123456789abcdef-fedcba9876543210");
  const obs::TraceContext parsed = obs::ParseTraceContext(token);
  EXPECT_EQ(parsed.trace_id, ctx.trace_id);
  EXPECT_EQ(parsed.span_id, ctx.span_id);
  // A root context (span 0) survives the wire too.
  ctx.span_id = 0;
  const obs::TraceContext root = obs::ParseTraceContext(
      obs::EncodeTraceContext(ctx));
  EXPECT_EQ(root.trace_id, ctx.trace_id);
  EXPECT_EQ(root.span_id, 0u);
}

TEST(TraceContext, InvalidEncodesEmpty) {
  EXPECT_EQ(obs::EncodeTraceContext(obs::TraceContext{}), "");
}

// The lenient-parse contract: every deviation yields an absent context,
// never an error — malformed wire tokens must not break the protocol.
TEST(TraceContext, ParseRejectsGarbageAsAbsent) {
  const char* kGarbage[] = {
      "",
      "-",
      "0123456789abcdef",                    // missing span half
      "0123456789abcdef-",                   // empty span half
      "-fedcba9876543210",                   // empty trace half
      "0123456789abcdef_fedcba9876543210",   // wrong separator
      "0123456789abcdeg-fedcba9876543210",   // non-hex digit
      "0123456789abcdef-fedcba987654321",    // short span half
      "0123456789abcdef-fedcba98765432100",  // long span half
      "00123456789abcdef-fedcba9876543210",  // long trace half
      "0123456789abcdef-fedcba9876543210x",  // trailing garbage
      "0000000000000000-fedcba9876543210",   // zero trace id
      "trace=0123456789abcdef-fedcba9876543210",  // prefix not stripped
  };
  for (const char* raw : kGarbage) {
    const obs::TraceContext parsed = obs::ParseTraceContext(raw);
    EXPECT_FALSE(parsed.valid()) << "'" << raw << "' must parse as absent";
  }
}

TEST(TraceContext, MintedContextsAreDistinctAndValid) {
  const obs::TraceContext a = obs::MintTraceContext();
  const obs::TraceContext b = obs::MintTraceContext();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, 0u) << "a minted root has no parent span";
  EXPECT_NE(obs::MintSpanId(), 0u);
}

TEST(TraceContext, ScopedInstallRestoresPrevious) {
  obs::TraceContext outer;
  outer.trace_id = 0x11;
  outer.span_id = 0x22;
  {
    obs::ScopedTraceContext install_outer(outer);
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 0x11u);
    {
      obs::TraceContext inner;
      inner.trace_id = 0x33;
      obs::ScopedTraceContext install_inner(inner);
      EXPECT_EQ(obs::CurrentTraceContext().trace_id, 0x33u);
    }
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 0x11u);
  }
  EXPECT_FALSE(obs::CurrentTraceContext().valid());
}

/// Extracts the 16-hex value of `key` from the args of the event named
/// `name` in a Chrome trace export ("" when absent).
std::string EventHexField(const std::string& json, const std::string& name,
                          const std::string& key) {
  const std::size_t at = json.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return "";
  const std::size_t eol = json.find('\n', at);
  const std::string line = json.substr(at, eol - at);
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t value = line.find(needle);
  if (value == std::string::npos) return "";
  return line.substr(value + needle.size(), 16);
}

// The distributed tree contract: spans recorded under a wire context
// carry its trace id, nest parent→child through the thread-local
// context, and leaf instants link to the innermost open span.
TEST_F(TracerTest, SpansUnderContextFormOneLinkedTree) {
  obs::Tracer::Instance().Enable();
  obs::TraceContext wire;
  wire.trace_id = 0xabcULL;
  wire.span_id = 0x123ULL;  // The remote parent (e.g. the client's span).
  {
    obs::ScopedTraceContext install(wire);
    obs::ScopedSpan outer("test", "outer");
    obs::ScopedSpan inner("test", "inner");
    SPTA_OBS_INSTANT("test", "leaf");
  }
  std::ostringstream out;
  ASSERT_TRUE(obs::Tracer::Instance().WriteChromeTrace(out));
  const std::string json = out.str();

  EXPECT_EQ(EventHexField(json, "outer", "trace_id"), "0000000000000abc");
  EXPECT_EQ(EventHexField(json, "inner", "trace_id"), "0000000000000abc");
  EXPECT_EQ(EventHexField(json, "leaf", "trace_id"), "0000000000000abc");
  // outer's parent is the wire span; inner's parent is outer; the leaf
  // instant's parent is inner. Every edge resolves within the export.
  EXPECT_EQ(EventHexField(json, "outer", "parent_span_id"),
            "0000000000000123");
  EXPECT_EQ(EventHexField(json, "inner", "parent_span_id"),
            EventHexField(json, "outer", "span_id"));
  EXPECT_EQ(EventHexField(json, "leaf", "parent_span_id"),
            EventHexField(json, "inner", "span_id"));
  EXPECT_NE(EventHexField(json, "outer", "span_id"),
            EventHexField(json, "inner", "span_id"));
}

// Without a context, the export stays byte-identical to the pre-tracing
// schema: no trace/span keys at all (pinned because downstream parsers
// and the A/B identity gate rely on it).
TEST_F(TracerTest, UntracedExportCarriesNoIds) {
  obs::Tracer::Instance().Enable();
  { obs::ScopedSpan span("test", "plain"); }
  std::ostringstream out;
  ASSERT_TRUE(obs::Tracer::Instance().WriteChromeTrace(out));
  EXPECT_EQ(out.str().find("trace_id"), std::string::npos);
  EXPECT_EQ(out.str().find("span_id"), std::string::npos);
}

// --------------------------------------------------------- flight recorder

/// Creates a ring, attaches a writer, and returns the fd (caller closes).
int MakeAttachedRing(obs::FlightRecorder* recorder, std::size_t slots) {
  std::string error;
  const int fd = obs::FlightRecorder::CreateRingFd(slots, &error);
  EXPECT_GE(fd, 0) << error;
  EXPECT_TRUE(recorder->AttachWriter(fd, &error)) << error;
  return fd;
}

obs::TraceEvent MakeEvent(std::uint64_t i) {
  obs::TraceEvent event;
  event.category = "test";
  event.name = "flight";
  event.arg_name = "i";
  event.arg_value = i;
  event.ts_ns = 1000 + i;
  event.dur_ns = 10;
  event.trace_id = 0xabc;
  event.span_id = 0x100 + i;
  event.parent_id = 0x99;
  return event;
}

TEST(FlightRecorder, WriteHarvestRoundTrip) {
  obs::FlightRecorder recorder;
  const int fd = MakeAttachedRing(&recorder, 8);
  for (std::uint64_t i = 0; i < 5; ++i) recorder.RecordEvent(MakeEvent(i), 7);

  const auto harvest = obs::FlightRecorder::HarvestFd(fd);
  EXPECT_TRUE(harvest.valid);
  EXPECT_EQ(harvest.writer_pid, static_cast<std::uint64_t>(::getpid()));
  EXPECT_EQ(harvest.claimed, 5u);
  EXPECT_EQ(harvest.torn, 0u);
  ASSERT_EQ(harvest.records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto& r = harvest.records[i];
    EXPECT_STREQ(r.category, "test");
    EXPECT_STREQ(r.name, "flight");
    EXPECT_EQ(r.arg_value, i) << "records must come back oldest-first";
    EXPECT_EQ(r.ts_ns, 1000 + i);
    EXPECT_EQ(r.trace_id, 0xabcu);
    EXPECT_EQ(r.span_id, 0x100 + i);
    EXPECT_EQ(r.tid, 7u);
  }
  ::close(fd);
}

TEST(FlightRecorder, RingWrapsKeepingMostRecent) {
  obs::FlightRecorder recorder;
  const int fd = MakeAttachedRing(&recorder, 4);
  for (std::uint64_t i = 0; i < 11; ++i) recorder.RecordEvent(MakeEvent(i), 0);

  const auto harvest = obs::FlightRecorder::HarvestFd(fd);
  EXPECT_TRUE(harvest.valid);
  EXPECT_EQ(harvest.claimed, 11u);
  ASSERT_EQ(harvest.records.size(), 4u);
  // The ring holds the last 4 claims (7..10), oldest first.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(harvest.records[i].arg_value, 7 + i);
  }
  ::close(fd);
}

// The pinned torn-write contract: corrupting one slot the way a SIGKILL
// mid-write would (payload bytes behind a stale checksum) loses exactly
// that record — the harvest skips it, counts it, keeps the rest, and the
// supervisor never aborts.
TEST(FlightRecorder, HarvestSkipsAndCountsTornSlot) {
  obs::FlightRecorder recorder;
  constexpr std::size_t kSlots = 8;
  const int fd = MakeAttachedRing(&recorder, kSlots);
  for (std::uint64_t i = 0; i < 6; ++i) recorder.RecordEvent(MakeEvent(i), 0);

  // Seeded corruption: scribble over slot 2's payload, leaving its
  // length/checksum stale — exactly the torn shape a mid-write kill
  // leaves behind.
  const std::size_t bytes = obs::FlightRecorder::RingBytes(kSlots);
  auto* base = static_cast<unsigned char*>(
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0));
  ASSERT_NE(base, MAP_FAILED);
  unsigned char* slot = base + obs::FlightRecorder::kHeaderSize +
                        2 * obs::FlightRecorder::kSlotSize;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 8; i < obs::FlightRecorder::kSlotSize; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    slot[i] = static_cast<unsigned char>(seed >> 56);
  }
  ::munmap(base, bytes);

  const auto harvest = obs::FlightRecorder::HarvestFd(fd);
  EXPECT_TRUE(harvest.valid);
  EXPECT_EQ(harvest.claimed, 6u);
  EXPECT_EQ(harvest.torn, 1u);
  ASSERT_EQ(harvest.records.size(), 5u);
  for (const auto& r : harvest.records) {
    EXPECT_NE(r.arg_value, 2u) << "the torn record must not surface";
  }
  ::close(fd);
}

TEST(FlightRecorder, GarbageHeaderHarvestsInvalidWithoutCrashing) {
  std::string error;
  const int fd = obs::FlightRecorder::CreateRingFd(4, &error);
  ASSERT_GE(fd, 0) << error;
  const std::size_t bytes = obs::FlightRecorder::RingBytes(4);
  auto* base = static_cast<unsigned char*>(
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0));
  ASSERT_NE(base, MAP_FAILED);
  for (std::size_t i = 0; i < obs::FlightRecorder::kHeaderSize; ++i) {
    base[i] = static_cast<unsigned char>(0xa5 + i);
  }
  ::munmap(base, bytes);

  const auto harvest = obs::FlightRecorder::HarvestFd(fd);
  EXPECT_FALSE(harvest.valid);
  EXPECT_TRUE(harvest.records.empty());
  // The Chrome dump of an invalid harvest is still well-formed JSON.
  const std::string json = obs::FlightRecorder::HarvestToChromeJson(harvest);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"valid\":false"), std::string::npos);
  ::close(fd);
}

TEST(FlightRecorder, FreshRingHarvestsValidAndEmpty) {
  // A child killed before AttachWriter leaves the creation-stamped
  // header: the harvest must parse it as a valid, empty ring.
  std::string error;
  const int fd = obs::FlightRecorder::CreateRingFd(4, &error);
  ASSERT_GE(fd, 0) << error;
  const auto harvest = obs::FlightRecorder::HarvestFd(fd);
  EXPECT_TRUE(harvest.valid);
  EXPECT_EQ(harvest.claimed, 0u);
  EXPECT_TRUE(harvest.records.empty());
  ::close(fd);
}

TEST(FlightRecorder, HarvestJsonCarriesIdsAndSummary) {
  obs::FlightRecorder recorder;
  const int fd = MakeAttachedRing(&recorder, 8);
  recorder.RecordEvent(MakeEvent(1), 3);
  recorder.RecordMetric("queue_depth", 42);
  const auto harvest = obs::FlightRecorder::HarvestFd(fd);
  const std::string json = obs::FlightRecorder::HarvestToChromeJson(harvest);
  EXPECT_NE(json.find("\"name\":\"flight\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"0000000000000abc\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"flightRecorder\""), std::string::npos);
  EXPECT_NE(json.find("\"torn\":0"), std::string::npos);
  // It merges like any tracer export.
  EXPECT_FALSE(obs::ExtractTraceEvents(json).empty());
  ::close(fd);
}

// ------------------------------------------------------------- trace merge

TEST(TraceMerge, SplicesDocumentsIntoOneTrace) {
  const std::string doc_a =
      "{\"traceEvents\":[\n{\"name\":\"a\",\"ph\":\"X\"}\n],"
      "\"displayTimeUnit\":\"ms\"}\n";
  const std::string doc_b =
      "{\"traceEvents\":[\n{\"name\":\"b\",\"ph\":\"X\"},\n"
      "{\"name\":\"c\",\"ph\":\"i\"}\n],\"displayTimeUnit\":\"ms\"}\n";
  const std::string merged = obs::MergeChromeTraces({doc_a, doc_b});
  EXPECT_NE(merged.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"b\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"c\""), std::string::npos);
  EXPECT_EQ(merged.find("\"traceEvents\""), 1u);
  // Exactly one events array: the merge is itself mergeable input.
  EXPECT_EQ(obs::ExtractTraceEvents(merged).empty(), false);
  EXPECT_EQ(std::count(merged.begin(), merged.end(), '['),
            std::count(merged.begin(), merged.end(), ']'));
}

TEST(TraceMerge, ExtractToleratesGarbageAndTrickyStrings) {
  EXPECT_EQ(obs::ExtractTraceEvents(""), "");
  EXPECT_EQ(obs::ExtractTraceEvents("not json at all"), "");
  EXPECT_EQ(obs::ExtractTraceEvents("{\"traceEvents\":"), "");
  EXPECT_EQ(obs::ExtractTraceEvents("{\"traceEvents\":[unterminated"), "");
  // A ']' inside a string value must not truncate the splice.
  const std::string tricky =
      "{\"traceEvents\":[{\"name\":\"we]ird[\",\"ph\":\"X\"}],"
      "\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(obs::ExtractTraceEvents(tricky),
            "{\"name\":\"we]ird[\",\"ph\":\"X\"}");
  // An escaped quote inside a string keeps the scanner in string state.
  const std::string escaped =
      "{\"traceEvents\":[{\"name\":\"q\\\"]\",\"ph\":\"X\"}]}";
  EXPECT_EQ(obs::ExtractTraceEvents(escaped),
            "{\"name\":\"q\\\"]\",\"ph\":\"X\"}");
  // Empty array ⇒ empty splice (the document contributes nothing).
  EXPECT_EQ(obs::ExtractTraceEvents("{\"traceEvents\":[]}"), "");
}

TEST(TraceMerge, MergedDocumentOfNothingIsStillWellFormed) {
  const std::string merged = obs::MergeChromeTraces({});
  EXPECT_EQ(merged, "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
}

// ----------------------------------------------------------- json logging

TEST(JsonLog, LineCarriesEnvelopeAndFields) {
  const std::string line = JsonLogLine("spta_fleet", "spawned")
                               .Int("child_pid", 4242)
                               .Str("note", "a\"b\\c\n")
                               .Finish();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"pid\":"), std::string::npos);
  EXPECT_NE(line.find("\"component\":\"spta_fleet\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"spawned\""), std::string::npos);
  EXPECT_NE(line.find("\"child_pid\":4242"), std::string::npos);
  // Quotes, backslashes and control bytes are escaped — one record is
  // always exactly one line.
  EXPECT_NE(line.find("\"note\":\"a\\\"b\\\\c\\n\""), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 0);
}

// ---------------------------------------------------------------- counters

// RunCounters must be a faithful flattening of the simulator's own stats:
// run a real (small) TVCA campaign and cross-check every field, then the
// aggregate sums.
TEST(ObsCounters, MatchesSimulatorStats) {
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 8;
  cc.master_seed = 123;
  const auto samples = analysis::RunCampaign(analysis::Workload(app, cc),
                                             {sim::RandLeon3Config()})
                           .samples;
  ASSERT_EQ(samples.size(), cc.runs);

  obs::CounterAggregate aggregate;
  std::uint64_t il1_misses = 0, dl1_misses = 0, cycles = 0;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const auto& d = samples[r].detail;
    const auto c = obs::RunCounters::From(r, samples[r].path_id, d);
    EXPECT_EQ(c.run, r);
    EXPECT_EQ(c.path_id, samples[r].path_id);
    EXPECT_EQ(c.cycles, d.cycles);
    EXPECT_EQ(c.instructions, d.instructions);
    EXPECT_EQ(c.il1_accesses, d.il1.accesses);
    EXPECT_EQ(c.il1_misses, d.il1.misses);
    EXPECT_EQ(c.dl1_accesses, d.dl1.accesses);
    EXPECT_EQ(c.dl1_misses, d.dl1.misses);
    EXPECT_EQ(c.itlb_misses, d.itlb.misses);
    EXPECT_EQ(c.dtlb_misses, d.dtlb.misses);
    EXPECT_EQ(c.fpu_ops, d.fpu.operations);
    EXPECT_EQ(c.fpu_cycles, d.fpu.total_cycles);
    EXPECT_EQ(c.prng_words, d.prng.words);
    EXPECT_EQ(c.prng_rejections, d.prng.rejections);
    EXPECT_EQ(c.sb_stores, d.store_buffer.stores);
    EXPECT_EQ(c.sb_high_water, d.store_buffer.high_water);
    // A randomized run MUST have drawn PRNG words (that is the platform).
    EXPECT_GT(c.prng_words, 0u);
    aggregate.Add(c);
    il1_misses += d.il1.misses;
    dl1_misses += d.dl1.misses;
    cycles += d.cycles;
  }
  EXPECT_EQ(aggregate.runs, cc.runs);
  EXPECT_EQ(aggregate.il1_misses, il1_misses);
  EXPECT_EQ(aggregate.dl1_misses, dl1_misses);
  EXPECT_EQ(aggregate.cycles, cycles);
  EXPECT_GE(aggregate.cycles_max, aggregate.cycles_min);
  EXPECT_GT(aggregate.cycles_min, 0u);
}

TEST(ObsCounters, CsvRowsMatchHeaderArity) {
  std::ostringstream out;
  obs::WriteCountersCsvHeader(out);
  obs::RunCounters c;
  c.run = 3;
  c.path_id = 9;
  c.cycles = 1000;
  obs::WriteCountersCsvRow(out, c);

  std::istringstream in(out.str());
  std::string comment, header, row;
  ASSERT_TRUE(std::getline(in, comment));
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(comment.front(), '#');
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
  EXPECT_EQ(row.substr(0, 7), "3,9,100");
}

TEST(ObsCounters, AggregateJsonIsFlatAndComplete) {
  obs::CounterAggregate a;
  obs::RunCounters c;
  c.cycles = 5;
  c.il1_misses = 2;
  a.Add(c);
  const std::string json = obs::RenderAggregateJson(a);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
  EXPECT_NE(json.find("\"runs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"il1_misses\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cycles_min\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"sb_high_water_max\": 0"), std::string::npos);
}

// -------------------------------------------------------------- prometheus

TEST(PromText, CountersAndGauges) {
  obs::PromText prom;
  prom.Declare("spta_widgets_total", "counter", "Widgets made.");
  prom.Sample("spta_widgets_total", 42.0);
  prom.Declare("spta_depth", "gauge", "Current depth.");
  prom.Sample("spta_depth", "kind=\"deep\"", 3.5);
  EXPECT_EQ(prom.str(),
            "# HELP spta_widgets_total Widgets made.\n"
            "# TYPE spta_widgets_total counter\n"
            "spta_widgets_total 42\n"
            "# HELP spta_depth Current depth.\n"
            "# TYPE spta_depth gauge\n"
            "spta_depth{kind=\"deep\"} 3.5\n");
}

// The shared latency-bin spec (satellite of the histogram dedup): service
// metrics and obs consumers must agree on these edges, so pin them.
TEST(LatencyBins, SharedSpecIsPinned) {
  EXPECT_EQ(kLatencyBinLoMicros, 0.0);
  EXPECT_EQ(kLatencyBinHiMicros, 200000.0);
  EXPECT_EQ(kLatencyBinCount, 40u);
  const Histogram h = MakeLatencyHistogram();
  EXPECT_EQ(h.bin_count(), kLatencyBinCount);
  EXPECT_EQ(h.bin_lo(0), kLatencyBinLoMicros);
  EXPECT_EQ(h.bin_hi(h.bin_count() - 1), kLatencyBinHiMicros);
}

}  // namespace
}  // namespace spta
