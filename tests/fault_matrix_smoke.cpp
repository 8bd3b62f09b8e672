// The fault-matrix acceptance smoke (tier1): one end-to-end row per
// injector class, pinning the reject-never-misreport invariant of
// docs/FAULTS.md:
//
//   SEU              campaign taint -> annotated CSV -> typed kTainted
//   PRNG degradation bring-up battery catches it; a frozen campaign that
//                    runs anyway is caught statistically (kDegenerate)
//   sample stream    digest mismatch / size floor -> typed rejection
//   I/O faults       a hostile socket connection degrades ITS session
//                    (metrics count it); the daemon never dies
//
// Plus the two global invariants: zero silent pWCET alterations (the
// guarded path and the batch pipeline agree bit-for-bit on clean input,
// and a faulty transport either fails typed or serves the identical
// result) and zero daemon crashes (the test ends with a clean SHUTDOWN
// handshake on the same server that absorbed the hostile connections).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/diagnosis.hpp"
#include "analysis/sample_io.hpp"
#include "apps/tvca.hpp"
#include "fault/campaign.hpp"
#include "fault/io_plan.hpp"
#include "fault/prng_degrade.hpp"
#include "fault/sample_corruption.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/per_path.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/sharded_server.hpp"
#include "sim/config.hpp"

namespace spta {
namespace {

std::vector<mbpta::PathObservation> ToObservations(
    const std::vector<analysis::RunSample>& samples) {
  std::vector<mbpta::PathObservation> obs;
  obs.reserve(samples.size());
  for (const auto& s : samples) obs.push_back({s.path_id, s.cycles});
  return obs;
}

/// A well-behaved synthetic sample for the service rows (large enough for
/// the block-maxima floor, varied enough not to be degenerate).
std::vector<mbpta::PathObservation> ServiceSample(std::size_t n) {
  std::vector<mbpta::PathObservation> obs;
  obs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs.push_back({0, 10000.0 + static_cast<double>((i * 7919) % 997)});
  }
  return obs;
}

// --- row 1: SEU ----------------------------------------------------------

TEST(FaultMatrix, SeuTaintFlowsToTypedRejection) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(/*scenario_seed=*/42);

  fault::CampaignFaults faults;
  faults.seu.upsets_per_run = 4.0;
  const auto faulted = analysis::RunCampaign(
      analysis::Workload(frame.trace, /*runs=*/40, /*master_seed=*/71),
      {config, /*jobs=*/2, {}, fault::MakeFaultWindow(faults, 71)});
  ASSERT_TRUE(faulted.Tainted());
  EXPECT_EQ(faulted.faults_injected, 40u * 4u);

  // Export with the taint annotation, re-ingest, analyze guarded: the
  // pipeline must refuse before fitting anything.
  std::ostringstream out;
  analysis::WriteSamplesCsvAnnotated(
      out, faulted.samples, faulted.faults_injected + faulted.reseeds_dropped);
  std::vector<mbpta::PathObservation> readback;
  analysis::CsvMeta meta;
  std::string error;
  ASSERT_TRUE(
      analysis::TryReadSamplesCsv(out.str(), &readback, &meta, &error))
      << error;
  ASSERT_TRUE(meta.Tainted());

  const auto guarded = analysis::AnalyzeObservationsGuarded(
      readback, {}, analysis::ProvenanceFromMeta(meta));
  EXPECT_EQ(guarded.diagnosis.code, analysis::DiagnosisCode::kTainted);
  EXPECT_FALSE(guarded.result.has_value());  // no pWCET was ever fitted
  EXPECT_STREQ(analysis::DiagnosisCodeName(guarded.diagnosis.code),
               "tainted");
}

// --- row 2: PRNG degradation ---------------------------------------------

TEST(FaultMatrix, PrngDegradationIsCaughtAtBringUpOrStatistically) {
  // Bring-up: the FIPS-style battery rejects every degraded config.
  fault::PrngDegradeConfig healthy;
  EXPECT_FALSE(fault::DegradationDetected(1234, healthy));
  fault::PrngDegradeConfig stuck;
  stuck.stuck_one_mask = 0x00ff0000u;
  EXPECT_TRUE(fault::DegradationDetected(1234, stuck));
  fault::PrngDegradeConfig starved;
  starved.entropy_bits = 8;
  EXPECT_TRUE(fault::DegradationDetected(1234, starved));

  // A campaign that runs anyway with the reseed write dropped every run
  // replays run 0's randomization: taint accounting catches it, and even
  // without provenance the constant sample is typed kDegenerate — never a
  // (zero-variance, absurdly tight) pWCET.
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(/*scenario_seed=*/9);
  fault::CampaignFaults faults;
  faults.reseed_dropout = 1.0;
  const auto frozen = analysis::RunCampaign(
      analysis::Workload(frame.trace, /*runs=*/60, /*master_seed=*/17),
      {config, /*jobs=*/2, {}, fault::MakeFaultWindow(faults, 17)});
  EXPECT_EQ(frozen.reseeds_dropped, 59u);

  analysis::SampleProvenance prov;
  prov.faults_reported = frozen.reseeds_dropped;
  const auto obs = ToObservations(frozen.samples);
  EXPECT_EQ(analysis::AnalyzeObservationsGuarded(obs, {}, prov)
                .diagnosis.code,
            analysis::DiagnosisCode::kTainted);
  EXPECT_EQ(analysis::AnalyzeObservationsGuarded(obs).diagnosis.code,
            analysis::DiagnosisCode::kDegenerate);
}

// --- row 3: sample-stream corruption -------------------------------------

TEST(FaultMatrix, CorruptedStreamsAreCaughtByDigestOrFloors) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 80;
  cc.master_seed = 303;
  const auto samples =
      analysis::RunCampaign(analysis::Workload(app, cc), {config, /*jobs=*/2})
          .samples;

  // Clean export, corrupted in transit: the recorded digest no longer
  // matches the rows, typed kIntegrityMismatch before any statistics.
  std::ostringstream out;
  analysis::WriteSamplesCsvAnnotated(out, samples, /*faults=*/0);
  std::vector<mbpta::PathObservation> readback;
  analysis::CsvMeta meta;
  std::string error;
  ASSERT_TRUE(
      analysis::TryReadSamplesCsv(out.str(), &readback, &meta, &error))
      << error;
  ASSERT_FALSE(meta.Tainted());

  fault::SampleCorruptionConfig corruption;
  corruption.duplicate_rate = 0.5;
  const auto report =
      fault::CorruptObservations(&readback, corruption, /*campaign_seed=*/12);
  ASSERT_GT(report.duplicates, 0u);
  const auto mismatched = analysis::AnalyzeObservationsGuarded(
      readback, {}, analysis::ProvenanceFromMeta(meta));
  EXPECT_EQ(mismatched.diagnosis.code,
            analysis::DiagnosisCode::kIntegrityMismatch);
  EXPECT_FALSE(mismatched.result.has_value());

  // Truncation below the block-maxima floor: typed kTooFewSamples even
  // with no provenance at all.
  auto truncated = ToObservations(samples);
  fault::SampleCorruptionConfig chop;
  chop.truncate_fraction = 0.8;
  (void)fault::CorruptObservations(&truncated, chop, /*campaign_seed=*/13);
  ASSERT_LT(truncated.size(), 30u);
  EXPECT_EQ(analysis::AnalyzeObservationsGuarded(truncated).diagnosis.code,
            analysis::DiagnosisCode::kTooFewSamples);
}

// --- global invariant: zero silent alterations on the clean path ---------

TEST(FaultMatrix, GuardedPathIsBitIdenticalToBatchOnCleanInput) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 120;
  cc.master_seed = 2026;
  const auto samples =
      analysis::RunCampaign(analysis::Workload(app, cc), {config, /*jobs=*/2})
          .samples;
  const auto obs = ToObservations(samples);

  mbpta::MbptaOptions options;
  options.require_iid = false;
  const auto guarded = analysis::AnalyzeObservationsGuarded(obs, options);
  ASSERT_TRUE(guarded.result.has_value()) << guarded.diagnosis.message;

  std::vector<double> times;
  for (const auto& o : obs) times.push_back(o.time);
  const auto batch = mbpta::AnalyzeSample(times, options);
  ASSERT_EQ(batch.curve.has_value(), guarded.result->curve.has_value());
  if (batch.curve) {
    for (const double p : {1e-3, 1e-9, 1e-15}) {
      EXPECT_EQ(guarded.result->curve->QuantileForExceedance(p),
                batch.curve->QuantileForExceedance(p))
          << "guard layer altered the pWCET at p=" << p;
    }
  }
  EXPECT_EQ(guarded.result->usable, batch.usable);
  EXPECT_EQ(guarded.result->block_size, batch.block_size);
}

// --- row 4: I/O faults against the resident daemon -----------------------

TEST(FaultMatrix, DaemonSurvivesHostileConnectionsAndCountsThem) {
  const std::string path =
      "/tmp/spta_fault_matrix_" + std::to_string(::getpid()) + ".sock";

  // Per-connection fault assignment (connection ordinals are assigned in
  // accept order; this test connects strictly sequentially):
  //   0 — lethal: one absorbed EINTR, then a mid-frame disconnect
  //   1 — transient seeded plan (EINTR + short I/O, no disconnects)
  //   2 — same transient profile, different stream index
  //   3+ — clean (the survival probe + shutdown handshake)
  fault::IoFaultConfig transient;
  transient.eintr_rate = 0.2;
  transient.short_io_rate = 0.4;
  auto plan1 = std::make_shared<fault::IoFaultPlan>(transient, 99, 1);
  auto plan2 = std::make_shared<fault::IoFaultPlan>(transient, 99, 2);

  service::ShardedServerOptions options;
  options.shards = 2;
  options.io_fault_hook_factory =
      [plan1, plan2](std::uint64_t ordinal) -> service::IoFaultHook {
    if (ordinal == 0) {
      auto reads = std::make_shared<std::atomic<int>>(0);
      return [reads](service::IoOp op, std::size_t) {
        service::IoFault f;
        if (op == service::IoOp::kRead) {
          const int n = reads->fetch_add(1) + 1;
          if (n == 1) f.error = EINTR;
          if (n >= 2) f.disconnect = true;
        }
        return f;
      };
    }
    if (ordinal == 1) return plan1->Hook();
    if (ordinal == 2) return plan2->Hook();
    return {};
  };
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenUnix(path), 0);
  ASSERT_EQ(fleet.Start(), 0);

  const auto connect = [&](double timeout_ms = 0.0) {
    std::unique_ptr<service::Client> connection;
    std::string error;
    for (int attempt = 0; attempt < 200 && !connection; ++attempt) {
      connection = service::Client::ConnectUnix(path, &error, timeout_ms);
      if (!connection) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(connection) << error;
    return connection;
  };

  // Connection 0: the server-side stream dies mid-frame. The client sees
  // a typed transport failure — never a hang, never a daemon death. The
  // 2s I/O deadline bounds the test even if the contract were broken.
  {
    auto lethal = connect(/*timeout_ms=*/2000.0);
    ASSERT_TRUE(lethal);
    service::Client& client = *lethal;
    const auto response = client.Ping();
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.args.GetString("code"), "transport");
  }

  // Connections 1 and 2: transient faults only — every request must
  // succeed, and the analysis served over the faulty transport must be
  // bit-identical across connections (no silent alteration in flight).
  const auto obs = ServiceSample(240);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  std::string pwcet_over_faults;
  {
    auto faulty = connect();
    ASSERT_TRUE(faulty);
    service::Client& client = *faulty;
    EXPECT_TRUE(client.Ping().ok);
    const auto analysis = client.AnalyzeInline(obs, no_iid);
    ASSERT_TRUE(analysis.ok) << analysis.payload;
    ASSERT_TRUE(analysis.args.Has("pwcet"));
    pwcet_over_faults = analysis.args.GetString("pwcet");
  }
  {
    auto faulty = connect();
    ASSERT_TRUE(faulty);
    service::Client& client = *faulty;
    const auto analysis = client.AnalyzeInline(obs, no_iid);
    ASSERT_TRUE(analysis.ok) << analysis.payload;
    EXPECT_EQ(analysis.args.GetString("pwcet"), pwcet_over_faults);
  }
  EXPECT_GT(plan1->faults_fired() + plan2->faults_fired(), 0u);

  // Clean connection: the daemon is alive, its metrics surface shows the
  // injection campaign, and it still shuts down gracefully.
  {
    auto clean = connect();
    ASSERT_TRUE(clean);
    service::Client& client = *clean;
    EXPECT_TRUE(client.Ping().ok);
    const auto metrics = client.Metrics();
    EXPECT_TRUE(metrics.ok);
    EXPECT_TRUE(client.Shutdown().ok);
  }
  EXPECT_EQ(fleet.Wait(), 0);

  const service::Response metrics = fleet.FleetMetricsResponse();
  EXPECT_GE(metrics.args.GetUint("faults_injected", 0),
            2 + plan1->faults_fired() + plan2->faults_fired());
  EXPECT_GE(metrics.args.GetUint("sessions_degraded", 0), 1u);
  EXPECT_TRUE(fleet.shutdown_requested());
}

}  // namespace
}  // namespace spta
