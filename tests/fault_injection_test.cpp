// The deterministic fault-injection subsystem (src/fault): seeding/replay
// contract, SEU injectors, PRNG degradation, sample-stream corruption,
// faulted campaigns, and the typed-rejection guarantees of the guarded
// analysis entry point. The central invariant throughout: every fault is
// a pure function of (campaign_seed, site, index), and a faulted campaign
// either gets rejected with a typed Diagnosis or is provably identical to
// the clean one — never a silently altered pWCET.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/diagnosis.hpp"
#include "analysis/sample_io.hpp"
#include "apps/tvca.hpp"
#include "fault/campaign.hpp"
#include "fault/plan.hpp"
#include "fault/prng_degrade.hpp"
#include "fault/sample_corruption.hpp"
#include "fault/seu.hpp"
#include "sim/config.hpp"
#include "sim/platform.hpp"

namespace {

using namespace spta;

// --- seeding / replay contract -------------------------------------------

TEST(FaultPlan, SiteSeedIsDeterministicAndSiteSeparated) {
  EXPECT_EQ(fault::SiteSeed(7, "seu", 3), fault::SiteSeed(7, "seu", 3));
  EXPECT_NE(fault::SiteSeed(7, "seu", 3), fault::SiteSeed(7, "seu", 4));
  EXPECT_NE(fault::SiteSeed(7, "seu", 3), fault::SiteSeed(7, "io", 3));
  EXPECT_NE(fault::SiteSeed(7, "seu", 3), fault::SiteSeed(8, "seu", 3));
}

TEST(FaultPlan, RollReplaysBitForBit) {
  fault::Roll a(42, "samples", 17);
  fault::Roll b(42, "samples", 17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(FaultPlan, BelowStaysInBoundsAndCoversResidues) {
  fault::Roll roll(1, "test", 0);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 2000; ++i) {
    const auto v = roll.Below(7);
    ASSERT_LT(v, 7u);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(FaultPlan, ChanceHonorsDegenerateProbabilities) {
  fault::Roll roll(1, "test", 1);
  EXPECT_FALSE(roll.Chance(0.0));
  EXPECT_TRUE(roll.Chance(1.0));
}

// --- SEU injection -------------------------------------------------------

class SeuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const apps::TvcaApp app;
    trace_ = app.BuildFrame(/*scenario_seed=*/42).trace;
  }
  trace::Trace trace_;
};

TEST_F(SeuTest, InjectionIsDeterministicInTheTriple) {
  const auto config = sim::RandLeon3Config();
  fault::SeuConfig seu;
  seu.upsets_per_run = 4.0;

  const auto run_once = [&](std::uint64_t run_index) {
    sim::Platform platform(config, 99);
    std::uint64_t flips = 0;
    const auto result = platform.RunWithHook(
        trace_, analysis::FixedTraceRunSeed(99, run_index),
        [&](sim::Platform& p) {
          flips = fault::InjectSeus(p, seu, /*campaign_seed=*/99, run_index)
                      .flips;
        });
    return std::make_pair(flips, result.cycles);
  };

  const auto first = run_once(5);
  const auto replay = run_once(5);
  EXPECT_EQ(first.first, replay.first);
  EXPECT_EQ(first.second, replay.second);
  EXPECT_EQ(first.first, 4u);  // integer rate: exactly 4 flips
}

TEST_F(SeuTest, FractionalRateIsABernoulliDraw) {
  const auto config = sim::DetLeon3Config();
  fault::SeuConfig seu;
  seu.upsets_per_run = 0.5;
  std::uint64_t total = 0;
  for (std::uint64_t r = 0; r < 64; ++r) {
    sim::Platform platform(config, 7);
    (void)platform.RunWithHook(
        trace_, analysis::FixedTraceRunSeed(7, r), [&](sim::Platform& p) {
          total += fault::InjectSeus(p, seu, 7, r).flips;
        });
  }
  // 64 runs at rate 0.5: expect ~32 flips; a very loose band still rules
  // out "always 0" and "always 1".
  EXPECT_GT(total, 10u);
  EXPECT_LT(total, 54u);
}

TEST_F(SeuTest, CorruptTagBitFlipsExactlyOneBit) {
  const auto config = sim::RandLeon3Config();
  sim::Platform platform(config, 3);
  auto& il1 = platform.core(0).il1();
  ASSERT_GT(il1.TagSlots(), 0u);
  const auto before = il1.TagAt(0);
  il1.CorruptTagBit(0, 17);
  EXPECT_EQ(il1.TagAt(0), before ^ (1ULL << 17));
  il1.CorruptTagBit(0, 17);
  EXPECT_EQ(il1.TagAt(0), before);

  auto& dtlb = platform.core(0).dtlb();
  ASSERT_GT(dtlb.EntrySlots(), 0u);
  const auto vpn_before = dtlb.VpnAt(0);
  dtlb.CorruptVpnBit(0, 5);
  EXPECT_EQ(dtlb.VpnAt(0), vpn_before ^ (1ULL << 5));
}

// --- PRNG degradation ----------------------------------------------------

TEST(PrngDegrade, HealthyGeneratorPassesTheBattery) {
  fault::PrngDegradeConfig healthy;
  EXPECT_FALSE(healthy.Degraded());
  EXPECT_FALSE(fault::DegradationDetected(123, healthy));
}

TEST(PrngDegrade, StuckBitsAreCaught) {
  fault::PrngDegradeConfig stuck;
  stuck.stuck_one_mask = 0x00ff0000u;
  EXPECT_TRUE(stuck.Degraded());
  EXPECT_TRUE(fault::DegradationDetected(123, stuck));

  fault::PrngDegradeConfig zeroed;
  zeroed.stuck_zero_mask = 0x0000ffffu;
  EXPECT_TRUE(fault::DegradationDetected(123, zeroed));
}

TEST(PrngDegrade, ReducedEntropyIsCaught) {
  fault::PrngDegradeConfig weak;
  weak.entropy_bits = 8;
  EXPECT_TRUE(fault::DegradationDetected(123, weak));
}

TEST(PrngDegrade, DegradedWordsHonorTheMasks) {
  fault::PrngDegradeConfig config;
  config.stuck_one_mask = 0x1u;
  config.stuck_zero_mask = 0x80000000u;
  fault::DegradedHwPrng prng(5, config);
  for (int i = 0; i < 200; ++i) {
    const auto w = prng.Next();
    EXPECT_EQ(w & 0x1u, 0x1u);
    EXPECT_EQ(w & 0x80000000u, 0u);
  }
}

// --- sample-stream corruption --------------------------------------------

std::vector<mbpta::PathObservation> SyntheticSample(std::size_t n) {
  std::vector<mbpta::PathObservation> obs;
  obs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs.push_back({/*path_id=*/static_cast<std::uint32_t>(i % 3),
                   /*time=*/1000.0 + static_cast<double>((i * 37) % 101)});
  }
  return obs;
}

TEST(SampleCorruption, IsDeterministicAndReported) {
  fault::SampleCorruptionConfig config;
  config.outlier_rate = 0.05;
  config.duplicate_rate = 0.05;
  config.truncate_fraction = 0.25;

  auto a = SyntheticSample(400);
  auto b = SyntheticSample(400);
  const auto ra = fault::CorruptObservations(&a, config, 31);
  const auto rb = fault::CorruptObservations(&b, config, 31);
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].path_id, b[i].path_id);
  }
  EXPECT_EQ(ra.outliers, rb.outliers);
  EXPECT_EQ(ra.duplicates, rb.duplicates);
  EXPECT_EQ(ra.dropped, rb.dropped);
  EXPECT_EQ(ra.dropped, 100u);  // truncate_fraction=0.25 on 400
  EXPECT_EQ(a.size(), 300u);
  EXPECT_GT(ra.Total(), ra.dropped);  // some outliers/duplicates fired
}

TEST(SampleCorruption, DifferentSeedDifferentDamage) {
  fault::SampleCorruptionConfig config;
  config.outlier_rate = 0.10;
  auto a = SyntheticSample(300);
  auto b = SyntheticSample(300);
  (void)fault::CorruptObservations(&a, config, 1);
  (void)fault::CorruptObservations(&b, config, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SampleCorruption, DisabledConfigIsANoOp) {
  fault::SampleCorruptionConfig config;
  EXPECT_FALSE(config.Enabled());
  auto obs = SyntheticSample(50);
  const auto untouched = obs;
  const auto report = fault::CorruptObservations(&obs, config, 9);
  EXPECT_EQ(report.Total(), 0u);
  ASSERT_EQ(obs.size(), untouched.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    EXPECT_EQ(obs[i].time, untouched[i].time);
  }
}

// --- faulted campaigns ---------------------------------------------------
// Bit-identity of faulted campaigns against a per-run reference is pinned
// by the campaign matrix (tests/campaign_test.cpp); these pin the fault
// window's own properties.

TEST(FaultCampaign, DisabledPlanIsBitIdenticalToCleanRunner) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 40;
  cc.master_seed = 2024;
  const analysis::FaultWindow window =
      fault::MakeFaultWindow(fault::CampaignFaults{}, cc.master_seed);
  EXPECT_FALSE(window.Active());

  const analysis::Workload workload(app, cc);
  const auto clean = analysis::RunCampaign(workload, {config, /*jobs=*/2});
  const auto faulted =
      analysis::RunCampaign(workload, {config, /*jobs=*/2, {}, window});
  EXPECT_FALSE(faulted.Tainted());
  ASSERT_EQ(faulted.samples.size(), clean.samples.size());
  for (std::size_t i = 0; i < clean.samples.size(); ++i) {
    EXPECT_EQ(faulted.samples[i].cycles, clean.samples[i].cycles)
        << "run " << i;
    EXPECT_EQ(faulted.samples[i].path_id, clean.samples[i].path_id)
        << "run " << i;
  }
}

TEST(FaultCampaign, SeuPlanPerturbsTimingAndTaints) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(/*scenario_seed=*/42);
  const analysis::Workload workload(frame.trace, /*runs=*/60,
                                    /*master_seed=*/77);
  fault::CampaignFaults faults;
  faults.seu.upsets_per_run = 8.0;

  const auto clean = analysis::RunCampaign(workload, {config, /*jobs=*/2});
  const auto faulted = analysis::RunCampaign(
      workload,
      {config, /*jobs=*/2, {}, fault::MakeFaultWindow(faults, 77)});

  EXPECT_EQ(faulted.faults_injected, 8u * 60u);
  EXPECT_TRUE(faulted.Tainted());
  ASSERT_EQ(faulted.samples.size(), clean.samples.size());
  bool any_changed = false;
  for (std::size_t i = 0; i < clean.samples.size(); ++i) {
    if (faulted.samples[i].cycles != clean.samples[i].cycles) {
      any_changed = true;
    }
  }
  EXPECT_TRUE(any_changed)
      << "480 tag/TLB upsets never moved a single cycle count";
}

TEST(FaultCampaign, TotalReseedDropoutFreezesTheRandomization) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(/*scenario_seed=*/42);
  fault::CampaignFaults faults;
  faults.reseed_dropout = 1.0;

  const auto result = analysis::RunCampaign(
      analysis::Workload(frame.trace, /*runs=*/20, /*master_seed=*/11),
      {config, /*jobs=*/2, {}, fault::MakeFaultWindow(faults, 11)});
  EXPECT_EQ(result.reseeds_dropped, 19u);  // run 0 never drops
  ASSERT_EQ(result.samples.size(), 20u);
  for (std::size_t i = 1; i < result.samples.size(); ++i) {
    EXPECT_EQ(result.samples[i].cycles, result.samples[0].cycles)
        << "run " << i << " should replay run 0's randomization";
  }
}

TEST(FaultCampaign, RunSeedDropoutIsAPureFunctionOfTheConfig) {
  fault::CampaignFaults faults;
  faults.reseed_dropout = 0.3;
  const analysis::FaultWindow window = fault::MakeFaultWindow(faults, 13);
  std::size_t dropped = 0;
  for (std::size_t r = 0; r < 100; ++r) {
    const std::size_t seed_run = fault::ReseedRun(faults, 13, r);
    EXPECT_EQ(seed_run, fault::ReseedRun(faults, 13, r));
    EXPECT_EQ(seed_run, window.seed_run(r));
    EXPECT_TRUE(seed_run == r || seed_run == 0) << "run " << r;
    if (r == 0) {
      EXPECT_EQ(seed_run, 0u);
    }
    dropped += seed_run != r;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 100u);
}

// --- detection: the guarded pipeline refuses unfit samples ---------------

TEST(GuardedAnalysis, TaintedSampleIsRejectedBeforeAnyStatistics) {
  const auto obs = SyntheticSample(500);
  analysis::SampleProvenance prov;
  prov.faults_reported = 3;
  const auto out = analysis::AnalyzeObservationsGuarded(obs, {}, prov);
  EXPECT_EQ(out.diagnosis.code, analysis::DiagnosisCode::kTainted);
  EXPECT_FALSE(out.result.has_value());
  EXPECT_FALSE(out.ok());
}

TEST(GuardedAnalysis, DigestMismatchIsRejected) {
  auto obs = SyntheticSample(500);
  analysis::SampleProvenance prov;
  prov.expected_digest = analysis::ObservationsDigest(obs);
  obs[250].time += 1.0;  // post-export tamper
  const auto out = analysis::AnalyzeObservationsGuarded(obs, {}, prov);
  EXPECT_EQ(out.diagnosis.code, analysis::DiagnosisCode::kIntegrityMismatch);
  EXPECT_FALSE(out.result.has_value());
}

TEST(GuardedAnalysis, MatchingDigestPassesThrough) {
  const auto obs = SyntheticSample(500);
  analysis::SampleProvenance prov;
  prov.expected_digest = analysis::ObservationsDigest(obs);
  const auto out = analysis::AnalyzeObservationsGuarded(obs, {}, prov);
  EXPECT_NE(out.diagnosis.code, analysis::DiagnosisCode::kIntegrityMismatch);
  EXPECT_NE(out.diagnosis.code, analysis::DiagnosisCode::kTainted);
}

TEST(GuardedAnalysis, TinySampleIsATypedRejectionNotAnAbort) {
  const auto obs = SyntheticSample(5);
  const auto out = analysis::AnalyzeObservationsGuarded(obs);
  EXPECT_EQ(out.diagnosis.code, analysis::DiagnosisCode::kTooFewSamples);
  EXPECT_FALSE(out.result.has_value());
}

TEST(GuardedAnalysis, ConstantSampleIsDegenerate) {
  std::vector<mbpta::PathObservation> obs(200, {0, 5000.0});
  const auto out = analysis::AnalyzeObservationsGuarded(obs);
  EXPECT_EQ(out.diagnosis.code, analysis::DiagnosisCode::kDegenerate);
}

TEST(GuardedAnalysis, DuplicateCorruptionTripsTheIidGate) {
  // A heavily duplicated stream (every other observation repeats its
  // predecessor) has strong autocorrelation: the Ljung-Box side of the
  // gate must reject it rather than let it shrink the pWCET.
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 300;
  cc.master_seed = 404;
  const auto samples =
      analysis::RunCampaign(analysis::Workload(app, cc), {config, /*jobs=*/2})
          .samples;
  std::vector<mbpta::PathObservation> obs;
  for (const auto& s : samples) {
    obs.push_back({s.path_id, s.cycles});
  }
  fault::SampleCorruptionConfig corruption;
  corruption.duplicate_rate = 0.6;
  (void)fault::CorruptObservations(&obs, corruption, 8);

  const auto out = analysis::AnalyzeObservationsGuarded(obs);
  EXPECT_FALSE(out.ok());
  // Statistical detection: the gate ran and rejected.
  ASSERT_TRUE(out.result.has_value());
  EXPECT_FALSE(out.result->usable);
  EXPECT_EQ(out.diagnosis.code, analysis::DiagnosisCode::kIidViolation);
}

// --- annotated CSV round trip --------------------------------------------

/// SyntheticSample(n) as campaign samples, the form the CLI exports.
std::vector<analysis::RunSample> SyntheticRunSamples(std::size_t n) {
  std::vector<analysis::RunSample> samples;
  for (const auto& o : SyntheticSample(n)) {
    analysis::RunSample s;
    s.cycles = o.time;
    s.path_id = static_cast<std::uint32_t>(o.path_id);
    samples.push_back(s);
  }
  return samples;
}

TEST(AnnotatedCsv, DigestAndFaultsSurviveTheRoundTrip) {
  std::ostringstream out;
  analysis::WriteSamplesCsvAnnotated(out, SyntheticRunSamples(120),
                                     /*faults=*/7);

  std::vector<mbpta::PathObservation> readback;
  analysis::CsvMeta meta;
  std::string error;
  ASSERT_TRUE(
      analysis::TryReadSamplesCsv(out.str(), &readback, &meta, &error))
      << error;
  ASSERT_TRUE(meta.digest.has_value());
  EXPECT_EQ(*meta.digest, analysis::ObservationsDigest(readback));
  EXPECT_EQ(meta.faults, 7u);
  EXPECT_TRUE(meta.Tainted());

  // The guarded pipeline refuses the tainted file outright.
  const auto guarded = analysis::AnalyzeObservationsGuarded(
      readback, {}, analysis::ProvenanceFromMeta(meta));
  EXPECT_EQ(guarded.diagnosis.code, analysis::DiagnosisCode::kTainted);
}

TEST(AnnotatedCsv, RowTamperIsCaughtByTheDigest) {
  std::ostringstream out;
  analysis::WriteSamplesCsvAnnotated(out, SyntheticRunSamples(120),
                                     /*faults=*/0);
  std::string text = out.str();
  // Drop the final data row (truncation attack past the annotations).
  text.erase(text.find_last_of('\n', text.size() - 2) + 1);

  std::vector<mbpta::PathObservation> readback;
  analysis::CsvMeta meta;
  std::string error;
  ASSERT_TRUE(analysis::TryReadSamplesCsv(text, &readback, &meta, &error));
  ASSERT_TRUE(meta.digest.has_value());
  const auto guarded = analysis::AnalyzeObservationsGuarded(
      readback, {}, analysis::ProvenanceFromMeta(meta));
  EXPECT_EQ(guarded.diagnosis.code,
            analysis::DiagnosisCode::kIntegrityMismatch);
}

TEST(AnnotatedCsv, LegacyFilesStillLoadWithoutMeta) {
  // A sample file as written before the integrity comments existed.
  const std::string text(
      "cycles,path_id\n"
      "10012,0\n"
      "10480,1\n"
      "10007,0\n"
      "10395,2\n"
      "10251,1\n");
  std::vector<mbpta::PathObservation> readback;
  analysis::CsvMeta meta;
  std::string error;
  ASSERT_TRUE(analysis::TryReadSamplesCsv(text, &readback, &meta, &error));
  EXPECT_FALSE(meta.digest.has_value());
  EXPECT_EQ(meta.faults, 0u);
  EXPECT_EQ(readback.size(), 5u);
}

}  // namespace
