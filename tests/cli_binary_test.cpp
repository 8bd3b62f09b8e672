// End-to-end tests of the spta_cli BINARY (process-level): campaign ->
// CSV -> analyze/convergence round trips, usage errors, exit codes.
// The binary path is injected at build time via SPTA_CLI_PATH.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

std::string CliPath() { return SPTA_CLI_PATH; }

int RunCli(const std::string& args, const std::string& stdout_file = "",
           const std::string& stderr_file = "/dev/null") {
  std::string cmd = CliPath() + " " + args;
  if (!stdout_file.empty()) cmd += " > " + stdout_file;
  cmd += " 2> " + stderr_file;
  const int rc = std::system(cmd.c_str());
  return WEXITSTATUS(rc);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One complete ("X") event of a --trace-out export.
struct Span {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  long tid = -1;
};

/// The value of `"key":` in one exported event line (strings unquoted).
std::string EventField(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  std::size_t pos = line.find(tag);
  if (pos == std::string::npos) return "";
  pos += tag.size();
  if (line[pos] == '"') {
    return line.substr(pos + 1, line.find('"', pos + 1) - pos - 1);
  }
  return line.substr(pos, line.find_first_of(",}", pos) - pos);
}

/// The complete events of a --trace-out export (one event per line).
std::vector<Span> CompleteSpans(const std::string& doc) {
  std::vector<Span> spans;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (EventField(line, "ph") != "X") continue;
    spans.push_back({EventField(line, "name"),
                     std::stod(EventField(line, "ts")),
                     std::stod(EventField(line, "dur")),
                     std::stol(EventField(line, "tid"))});
  }
  return spans;
}

/// How many `name` spans there are, and whether each lies inside a `run`
/// span on its thread.
std::size_t CountInsideRuns(const std::vector<Span>& spans,
                            const std::string& name, bool* all_inside) {
  constexpr double kSlackUs = 0.001;  // ts and dur are printed to 1 ns
  std::size_t count = 0;
  *all_inside = true;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    ++count;
    *all_inside &= std::any_of(spans.begin(), spans.end(), [&](const Span& r) {
      return r.name == "run" && r.tid == s.tid && r.ts <= s.ts + kSlackUs &&
             s.ts + s.dur <= r.ts + r.dur + kSlackUs;
    });
  }
  return count;
}

class CliBinaryTest : public ::testing::Test {
 protected:
  void SetUp() override { csv_ = TempPath("samples.csv"); }
  void TearDown() override { std::remove(csv_.c_str()); }

  /// A temp file private to the running test. ctest runs the tests of this
  /// fixture as parallel processes, so no two may share a path.
  static std::string TempPath(const std::string& suffix) {
    return ::testing::TempDir() + "spta_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + suffix;
  }

  std::string csv_;
};

TEST_F(CliBinaryTest, NoArgumentsPrintsUsageAndFails) {
  EXPECT_EQ(RunCli(""), 2);
  EXPECT_EQ(RunCli("frobnicate"), 2);
}

TEST_F(CliBinaryTest, CampaignWritesWellFormedCsv) {
  ASSERT_EQ(RunCli("campaign --platform det --runs 60 --seed 3 --output " +
                   csv_),
            0);
  const std::string content = Slurp(csv_);
  EXPECT_EQ(content.rfind("cycles,path_id\n", 0), 0u);
  // Header + 60 data lines.
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 61);
}

// The observability acceptance path: one campaign, three artifacts. The
// sample CSV must be byte-identical to a run without the obs flags, the
// trace must be a Chrome/Perfetto trace_event document, and the counter
// CSV must carry one row per run plus the aggregate JSON sidecar.
TEST_F(CliBinaryTest, CampaignObsFlagsProduceTraceAndCounters) {
  const std::string trace_json = TempPath("trace.json");
  const std::string counters = TempPath("counters.csv");
  const std::string plain_csv = TempPath("plain.csv");
  ASSERT_EQ(RunCli("campaign --platform rand --runs 40 --seed 7 --output " +
                   csv_ + " --trace-out " + trace_json + " --counters-out " +
                   counters),
            0);
  ASSERT_EQ(
      RunCli("campaign --platform rand --runs 40 --seed 7 --output " +
             plain_csv),
      0);
  EXPECT_EQ(Slurp(csv_), Slurp(plain_csv));  // obs flags never touch data

  const std::string trace = Slurp(trace_json);
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"name\":\"tvca_campaign\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // Each run splits into the pipeline's layers: one frame build (five
  // job interpretations and one composition) and one simulation.
  const std::vector<Span> spans = CompleteSpans(trace);
  for (const auto& [layer, per_run] :
       {std::pair<std::string, std::size_t>{"build_frame", 1},
        {"interpret", 5},
        {"compose", 1},
        {"simulate", 1}}) {
    SCOPED_TRACE(layer);
    bool inside = false;
    EXPECT_EQ(CountInsideRuns(spans, layer, &inside), 40 * per_run);
    EXPECT_TRUE(inside);
  }

  const std::string counter_csv = Slurp(counters);
  EXPECT_NE(counter_csv.find("run,path_id,cycles,"), std::string::npos);
  // Comment + header + 40 rows.
  EXPECT_EQ(std::count(counter_csv.begin(), counter_csv.end(), '\n'), 42);
  const std::string aggregate = Slurp(counters + ".summary.json");
  EXPECT_NE(aggregate.find("\"runs\": 40"), std::string::npos);
  EXPECT_NE(aggregate.find("\"il1_misses\": "), std::string::npos);

  std::remove(trace_json.c_str());
  std::remove(counters.c_str());
  std::remove((counters + ".summary.json").c_str());
  std::remove(plain_csv.c_str());
}

TEST_F(CliBinaryTest, AnalyzeRoundTripSucceeds) {
  ASSERT_EQ(RunCli("campaign --platform rand --runs 250 --seed 9 --output " +
                   csv_),
            0);
  const std::string out = TempPath("analyze.txt");
  EXPECT_EQ(RunCli("analyze --input " + csv_ + " --per-path", out), 0);
  const std::string report = Slurp(out);
  EXPECT_NE(report.find("Ljung-Box"), std::string::npos);
  EXPECT_NE(report.find("pWCET"), std::string::npos);
  EXPECT_NE(report.find("path coverage"), std::string::npos);
  std::remove(out.c_str());
}

TEST_F(CliBinaryTest, AnalyzeRejectsTinySample) {
  std::ofstream(csv_) << "cycles,path_id\n100,0\n101,0\n";
  EXPECT_EQ(RunCli("analyze --input " + csv_), 2);
}

TEST_F(CliBinaryTest, AnalyzeRejectsMissingFile) {
  EXPECT_EQ(RunCli("analyze --input /nonexistent/nope.csv"), 2);
}

// A suite campaign writes the same CSV, counter CSV and counter summary at
// one job and at three: its frames are built on the campaign pool and
// each run measures its scenario's frame whichever worker claims it.
TEST_F(CliBinaryTest, SuiteCsvAndCountersAreByteIdenticalAcrossJobs) {
  const std::string again = TempPath("again.csv");
  const std::string first_ctr = TempPath("first_ctr");
  const std::string again_ctr = TempPath("again_ctr");
  ASSERT_EQ(RunCli("campaign --platform rand --runs 48 --seed 11 "
                   "--scenarios 6 --jobs 1 --counters-out " +
                   first_ctr + " --output " + csv_),
            0);
  ASSERT_EQ(RunCli("campaign --platform rand --runs 48 --seed 11 "
                   "--scenarios 6 --jobs 3 --counters-out " +
                   again_ctr + " --output " + again),
            0);
  EXPECT_EQ(Slurp(again), Slurp(csv_));
  EXPECT_EQ(Slurp(again_ctr), Slurp(first_ctr));
  EXPECT_EQ(Slurp(again_ctr + ".summary.json"),
            Slurp(first_ctr + ".summary.json"));
  EXPECT_NE(Slurp(first_ctr).find("il1_misses"), std::string::npos);
  for (const auto& f : {again, first_ctr, again_ctr,
                        first_ctr + ".summary.json",
                        again_ctr + ".summary.json"}) {
    std::remove(f.c_str());
  }
}

// A fault campaign run twice writes the same tainted CSV. (Named for the
// retired --batch-lanes flag it once passed.)
TEST_F(CliBinaryTest, BatchLanesIsIgnoredUnderFaultFlags) {
  const std::string again = TempPath("faulty_again.csv");
  ASSERT_EQ(RunCli("campaign --platform rand --runs 4 --seu-rate 0.001 "
                   "--output " + csv_),
            0);
  EXPECT_EQ(RunCli("campaign --platform rand --runs 4 "
                   "--seu-rate 0.001 --output " + again),
            0);
  EXPECT_EQ(Slurp(again), Slurp(csv_));
  std::remove(again.c_str());
}

// An unknown flag is a usage error: exit 2 before any run, so no CSV is
// written. This covers a typo (--job for --jobs), which would otherwise
// run at the default, and the retired --batch-lanes.
TEST_F(CliBinaryTest, UnknownFlagsExitTwoAndWriteNothing) {
  for (const char* flag : {"--batch-lanes 8", "--job 4"}) {
    SCOPED_TRACE(flag);
    std::remove(csv_.c_str());
    EXPECT_EQ(RunCli(std::string("campaign --platform rand --runs 4 ") +
                     flag + " --output " + csv_),
              2);
    EXPECT_FALSE(std::ifstream(csv_).good());
  }
}

// `trace` knows only info; any other subcommand, such as the retired
// `mine`, `pack` and `unpack`, exits 2 even on a valid trace file.
TEST_F(CliBinaryTest, TraceMinePackAndUnpackAreUnknownSubcommands) {
  const std::string frame = TempPath("frame.trc");
  const std::string out = TempPath("out.trc");
  ASSERT_EQ(RunCli("record --trace " + frame + " --scenario 42"), 0);
  EXPECT_EQ(RunCli("trace info " + frame, "/dev/null"), 0);
  for (const char* sub : {"mine", "pack", "unpack", "frobnicate"}) {
    SCOPED_TRACE(sub);
    EXPECT_EQ(RunCli(std::string("trace ") + sub + " " + frame + " " + out),
              2);
    EXPECT_FALSE(std::ifstream(out).good());
  }
  std::remove(frame.c_str());
}

// `simulate --trace` reads the record file only: a file that starts with
// another container's magic (`ATLS`) is rejected by the record reader's
// bad-magic diagnostic, and no CSV is written.
TEST_F(CliBinaryTest, SimulateRejectsAForeignContainerMagic) {
  const std::string foreign = TempPath("foreign.trc");
  const std::string err = TempPath("stderr.txt");
  std::ofstream(foreign, std::ios::binary)
      << std::string("ATLS\x01\x00\x00\x00 columnar bytes", 23);
  EXPECT_EQ(RunCli("simulate --trace " + foreign +
                       " --platform rand --runs 4 --output " + csv_,
                   "", err),
            2);
  EXPECT_NE(Slurp(err).find(foreign + ": not a SpacePTA trace (bad magic)"),
            std::string::npos)
      << Slurp(err);
  EXPECT_FALSE(std::ifstream(csv_).good());
  std::remove(foreign.c_str());
  std::remove(err.c_str());
}

// --checkpoint end to end: a journaled campaign killed by --abort-after
// writes no CSV, and --resume finishes it to the CSV of a plain run, byte
// for byte. `campaign` and `simulate` share one runner; both are driven.
class CliJournalTest : public CliBinaryTest {
 protected:
  void SetUp() override {
    CliBinaryTest::SetUp();
    journal_ = TempPath("journal.ckpt");
    plain_ = TempPath("plain.csv");
    std::remove(journal_.c_str());
    std::remove(csv_.c_str());
  }
  void TearDown() override {
    std::remove(journal_.c_str());
    std::remove(plain_.c_str());
    CliBinaryTest::TearDown();
  }

  /// Runs `command` (30 runs) plain, then killed after 5 appends and
  /// resumed; the resumed CSV must equal the plain one.
  void ExpectResumeMatchesPlain(const std::string& command) {
    ASSERT_EQ(RunCli(command + " --output " + plain_), 0);
    ASSERT_EQ(RunCli(command + " --checkpoint " + journal_ +
                     " --abort-after 5 --output " + csv_),
              0);
    EXPECT_FALSE(std::ifstream(csv_).good()) << "killed run wrote a CSV";
    EXPECT_TRUE(std::ifstream(journal_).good());
    ASSERT_EQ(RunCli(command + " --checkpoint " + journal_ +
                     " --resume --output " + csv_),
              0);
    const std::string resumed = Slurp(csv_);
    EXPECT_EQ(std::count(resumed.begin(), resumed.end(), '\n'), 31);
    EXPECT_EQ(resumed, Slurp(plain_));
  }

  std::string journal_;
  std::string plain_;
};

TEST_F(CliJournalTest, CampaignResumeIsByteIdenticalToPlainRun) {
  ExpectResumeMatchesPlain(
      "campaign --platform rand --runs 30 --seed 13 --scenarios 6 --jobs 2");
}

TEST_F(CliJournalTest, SimulateResumeIsByteIdenticalToPlainRun) {
  const std::string frame = TempPath("frame.trc");
  ASSERT_EQ(RunCli("record --trace " + frame + " --scenario 42"), 0);
  ExpectResumeMatchesPlain("simulate --trace " + frame +
                           " --platform rand --runs 30 --seed 13 --jobs 2");
  std::remove(frame.c_str());
}

TEST_F(CliJournalTest, CheckpointWithFaultFlagsIsRefused) {
  EXPECT_EQ(RunCli("campaign --platform rand --runs 10 --seu-rate 1 "
                   "--checkpoint " + journal_ + " --output " + csv_),
            2);
  EXPECT_FALSE(std::ifstream(journal_).good());
  EXPECT_FALSE(std::ifstream(csv_).good());
}

TEST_F(CliBinaryTest, ConvergenceRunsOnCampaignOutput) {
  ASSERT_EQ(RunCli("campaign --platform rand --runs 450 --seed 4 --output " +
                   csv_),
            0);
  const std::string out = TempPath("conv.txt");
  const int rc = RunCli(
      "convergence --input " + csv_ + " --initial 150 --step 150 --tol 0.05",
      out);
  const std::string report = Slurp(out);
  EXPECT_NE(report.find("converged:"), std::string::npos);
  EXPECT_TRUE(rc == 0 || rc == 1);  // converged or honestly not
  std::remove(out.c_str());
}

}  // namespace
