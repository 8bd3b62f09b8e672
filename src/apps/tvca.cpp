#include "apps/tvca.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "obs/trace.hpp"
#include "prng/xoshiro.hpp"
#include "trace/interpreter.hpp"

namespace spta::apps {

using trace::ArrayId;
using trace::BlockId;
using trace::Program;
using trace::ProgramBuilder;
using trace::RegId;

const char* ToString(TvcaTask task) {
  switch (task) {
    case TvcaTask::kSensorAcq:
      return "sensor-acq";
    case TvcaTask::kActuatorX:
      return "actuator-x";
    case TvcaTask::kActuatorY:
      return "actuator-y";
  }
  return "?";
}

namespace {

// Emits `count` straight-line instructions into the builder's current
// block: the large inlined arithmetic sections typical of model-generated
// control code. The mix (FP multiply-accumulate with interspersed loads,
// stores and integer updates) is deterministic, so the program — and with
// it the code footprint that pressures the IL1 — is identical on every
// build. `scratch` must be an FP array of at least `scratch_len` elements,
// and integer register 15 must hold zero.
void AppendStraightline(ProgramBuilder& b, ArrayId scratch,
                        std::int64_t scratch_len, int count) {
  std::uint32_t lcg = 0x2545f491u;
  for (int i = 0; i < count; ++i) {
    lcg = lcg * 1664525u + 1013904223u;
    const std::int64_t idx =
        static_cast<std::int64_t>(lcg >> 8) % scratch_len;
    switch (lcg % 8u) {
      case 0:
      case 1:
        b.LoadF(3, scratch, 15, idx);
        break;
      case 2:
        b.StoreF(scratch, 15, 4, idx);
        break;
      case 3:
        b.FMul(4, 3, 3);
        break;
      case 4:
        b.FAdd(4, 4, 3);
        break;
      case 5:
        b.IAddImm(7, 7, 1);
        break;
      case 6:
        b.FSub(4, 4, 3);
        break;
      default:
        b.IXor(8, 7, 7);
        break;
    }
  }
}

// Shared register conventions.
constexpr RegId kC = 1;      // outer loop counter
constexpr RegId kJ = 2;      // middle loop counter
constexpr RegId kK = 3;      // inner loop counter
constexpr RegId kB0 = 4;     // outer bound
constexpr RegId kB1 = 5;     // middle bound
constexpr RegId kCond = 6;   // branch condition
constexpr RegId kT0 = 7, kT1 = 8, kT2 = 9, kT3 = 10;
constexpr RegId kZero = 15;
constexpr RegId kB2 = 16;    // inner bound
constexpr RegId kRowLen = 17;

constexpr RegId kAcc = 1;    // FP accumulator
constexpr RegId kF2 = 2, kF3 = 3, kF4 = 4, kF5 = 5, kF6 = 6, kF7 = 7;
constexpr RegId kLimit = 10;
constexpr RegId kQ0 = 11, kQ1 = 12, kQ2 = 13, kQ3 = 14;

// Sensor program array ids (order of declaration below).
constexpr ArrayId kRaw = 0, kGains = 1, kCoef = 2, kFiltered = 3,
                  kFaults = 4, kSMode = 5, kOffsets = 6;
// Actuator program array ids.
constexpr ArrayId kMatA = 0, kGainK = 1, kStateX = 2, kWorkY = 3, kCmdU = 4,
                  kAMode = 5, kRates = 6, kQState = 7, kSched = 8;
// Telemetry scratch region per task (written by the straight-line telemetry
// sections): 512 doubles = 4KB, a quarter of the DL1.
constexpr std::int64_t kTelemetryLen = 512;
}  // namespace

TvcaApp::TvcaApp(const TvcaConfig& config)
    : config_(config),
      programs_{BuildSensorProgram(),
                BuildActuatorProgram("actuator-x", config.state_dim,
                                     config.integrator_steps / 2 + 1),
                BuildActuatorProgram("actuator-y", config.state_dim,
                                     config.integrator_steps)} {
  SPTA_REQUIRE(config.sensor_channels >= 1 && config.samples_per_frame >= 1);
  SPTA_REQUIRE(config.fir_taps >= 1 && config.state_dim >= 2);
  SPTA_REQUIRE(config.integrator_steps >= 1);
  // Each task is a separately linked binary region: disjoint code and data
  // addresses (otherwise the tasks would artificially alias in the caches).
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    programs_[i].AssignLayout(0x40000000 + 0x10000ULL * i,
                              0x40100000 + 0x40000ULL * i,
                              /*link_offset=*/0, config.layout_seed);
  }
}

const Program& TvcaApp::program(TvcaTask task) const {
  return programs_[static_cast<std::size_t>(task)];
}

const trace::DecodedProgram& TvcaApp::Decoded(TvcaTask task) const {
  const auto i = static_cast<std::size_t>(task);
  std::call_once(decode_once_[i],
                 [&] { decoded_[i] = trace::DecodedProgram(programs_[i]); });
  return decoded_[i];
}

Program TvcaApp::BuildSensorProgram() const {
  const int channels = config_.sensor_channels;
  const int samples = config_.samples_per_frame;
  const int taps = config_.fir_taps;
  const int row = samples + taps;

  ProgramBuilder b("tvca-sensor");
  const auto raw =
      b.AddIntArray("raw", static_cast<std::size_t>(channels) * row);
  const auto gains = b.AddFpArray("gains", static_cast<std::size_t>(channels));
  const auto coef = b.AddFpArray("coef", static_cast<std::size_t>(taps));
  const auto filtered = b.AddFpArray(
      "filtered", static_cast<std::size_t>(channels) * samples);
  const auto faults =
      b.AddIntArray("faults", static_cast<std::size_t>(channels));
  const auto mode = b.AddIntArray("mode", 1);
  const auto offsets =
      b.AddFpArray("offsets", static_cast<std::size_t>(channels));
  const auto telemetry = b.AddFpArray("telemetry", kTelemetryLen);
  SPTA_CHECK(raw == kRaw && gains == kGains && coef == kCoef &&
             filtered == kFiltered && faults == kFaults && mode == kSMode &&
             offsets == kOffsets);

  const BlockId entry = b.NewBlock();
  const BlockId chan_loop = b.NewBlock();
  const BlockId chan_body = b.NewBlock();
  const BlockId samp_loop = b.NewBlock();
  const BlockId samp_body = b.NewBlock();
  const BlockId conv_loop = b.NewBlock();
  const BlockId conv_body = b.NewBlock();
  const BlockId conv_end = b.NewBlock();
  const BlockId saturate = b.NewBlock();
  const BlockId store_ok = b.NewBlock();
  const BlockId chan_end = b.NewBlock();
  const BlockId calib_check = b.NewBlock();
  const BlockId calib_init = b.NewBlock();
  const BlockId calib_loop = b.NewBlock();
  const BlockId calib_body = b.NewBlock();
  const BlockId cal_sum_loop = b.NewBlock();
  const BlockId cal_sum_body = b.NewBlock();
  const BlockId cal_store = b.NewBlock();
  const BlockId exit = b.NewBlock();

  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IConst(kB0, channels);
  b.IConst(kB1, samples);
  b.IConst(kB2, taps);
  b.IConst(kRowLen, row);
  b.IConst(kZero, 0);
  b.FConst(kLimit, 3.0);  // engineering-unit saturation limit
  b.IConst(kC, 0);
  b.Jump(chan_loop);

  b.SwitchTo(chan_loop);
  b.ICmpLt(kCond, kC, kB0);
  b.BranchIfZero(kCond, calib_check, chan_body);

  b.SwitchTo(chan_body);
  b.IConst(kJ, 0);
  b.Jump(samp_loop);

  b.SwitchTo(samp_loop);
  b.ICmpLt(kCond, kJ, kB1);
  b.BranchIfZero(kCond, chan_end, samp_body);

  b.SwitchTo(samp_body);
  b.FConst(kAcc, 0.0);
  b.IConst(kK, 0);
  b.Jump(conv_loop);

  b.SwitchTo(conv_loop);
  b.ICmpLt(kCond, kK, kB2);
  b.BranchIfZero(kCond, conv_end, conv_body);

  b.SwitchTo(conv_body);
  // raw[c*row + j + k]: ADC word -> scale by channel gain -> FIR tap.
  b.IMul(kT0, kC, kRowLen);
  b.IAdd(kT1, kT0, kJ);
  b.IAdd(kT1, kT1, kK);
  b.LoadI(kT2, kRaw, kT1);
  b.IToF(kF2, kT2);
  b.LoadF(kF3, kGains, kC);
  b.FMul(kF2, kF2, kF3);
  b.LoadF(kF4, kCoef, kK);
  b.FMul(kF5, kF2, kF4);
  b.FAdd(kAcc, kAcc, kF5);
  b.IAddImm(kK, kK, 1);
  b.Jump(conv_loop);

  b.SwitchTo(conv_end);
  // Range check: |y| > limit takes the saturation path.
  b.FAbs(kF2, kAcc);
  b.FCmpLt(kCond, kLimit, kF2);
  b.BranchIfZero(kCond, store_ok, saturate);

  b.SwitchTo(saturate);
  b.FMove(kAcc, kLimit);
  b.LoadI(kT2, kFaults, kC);
  b.IAddImm(kT2, kT2, 1);
  b.StoreI(kFaults, kC, kT2);
  b.Jump(store_ok);

  b.SwitchTo(store_ok);
  b.IMul(kT0, kC, kB1);
  b.IAdd(kT1, kT0, kJ);
  b.StoreF(kFiltered, kT1, kAcc);
  b.IAddImm(kJ, kJ, 1);
  b.Jump(samp_loop);

  b.SwitchTo(chan_end);
  b.IAddImm(kC, kC, 1);
  b.Jump(chan_loop);

  b.SwitchTo(calib_check);
  b.LoadI(kT0, kSMode, kZero);
  b.BranchIfZero(kT0, exit, calib_init);

  b.SwitchTo(calib_init);
  b.IConst(kC, 0);
  b.Jump(calib_loop);

  b.SwitchTo(calib_loop);
  b.ICmpLt(kCond, kC, kB0);
  b.BranchIfZero(kCond, exit, calib_body);

  b.SwitchTo(calib_body);
  b.FConst(kAcc, 0.0);
  b.IConst(kJ, 0);
  b.Jump(cal_sum_loop);

  b.SwitchTo(cal_sum_loop);
  b.ICmpLt(kCond, kJ, kB1);
  b.BranchIfZero(kCond, cal_store, cal_sum_body);

  b.SwitchTo(cal_sum_body);
  b.IMul(kT0, kC, kB1);
  b.IAdd(kT1, kT0, kJ);
  b.LoadF(kF2, kFiltered, kT1);
  b.FAdd(kAcc, kAcc, kF2);
  b.IAddImm(kJ, kJ, 1);
  b.Jump(cal_sum_loop);

  b.SwitchTo(cal_store);
  b.IToF(kF3, kB1);
  b.FDiv(kF2, kAcc, kF3);  // channel mean (value-dependent FDIV)
  b.StoreF(kOffsets, kC, kF2);
  b.IAddImm(kC, kC, 1);
  b.Jump(calib_loop);

  b.SwitchTo(exit);
  // Inlined post-processing section (health/telemetry conditioning in the
  // real generated code): straight-line, executed once per job.
  AppendStraightline(b, telemetry, kTelemetryLen,
                     config_.straightline_instructions);
  b.Halt();

  return b.Build();
}

Program TvcaApp::BuildActuatorProgram(const char* name, int dim,
                                      int steps) const {
  SPTA_REQUIRE(dim >= 2 && steps >= 1);
  ProgramBuilder b(name);
  const auto mat_a =
      b.AddFpArray("A", static_cast<std::size_t>(dim) * dim);
  const auto gain_k = b.AddFpArray("K", static_cast<std::size_t>(dim));
  const auto state_x = b.AddFpArray("x", static_cast<std::size_t>(dim));
  const auto work_y = b.AddFpArray("y", static_cast<std::size_t>(dim));
  const auto cmd_u = b.AddFpArray("u", static_cast<std::size_t>(dim));
  const auto mode = b.AddIntArray("mode", 1);
  const auto rates =
      b.AddFpArray("rates", static_cast<std::size_t>(steps) * 3);
  const auto qstate = b.AddFpArray("q", 8);
  const auto sched =
      b.AddFpArray("sched", static_cast<std::size_t>(dim) * dim);
  const auto telemetry = b.AddFpArray("telemetry", kTelemetryLen);
  SPTA_CHECK(mat_a == kMatA && gain_k == kGainK && state_x == kStateX &&
             work_y == kWorkY && cmd_u == kCmdU && mode == kAMode &&
             rates == kRates && qstate == kQState && sched == kSched);

  const BlockId entry = b.NewBlock();
  const BlockId refine_loop = b.NewBlock();
  const BlockId refine_body = b.NewBlock();
  const BlockId refine_end = b.NewBlock();
  const BlockId mv_loop = b.NewBlock();
  const BlockId mv_body = b.NewBlock();
  const BlockId mv_inner = b.NewBlock();
  const BlockId mv_inner_body = b.NewBlock();
  const BlockId mv_store = b.NewBlock();
  const BlockId dot_init = b.NewBlock();
  const BlockId dot_loop = b.NewBlock();
  const BlockId dot_body = b.NewBlock();
  const BlockId u_init = b.NewBlock();
  const BlockId u_loop = b.NewBlock();
  const BlockId u_body = b.NewBlock();
  const BlockId mag_check = b.NewBlock();
  const BlockId clamp_init = b.NewBlock();
  const BlockId clamp_loop = b.NewBlock();
  const BlockId clamp_body = b.NewBlock();
  const BlockId mode_check = b.NewBlock();
  const BlockId stab_init = b.NewBlock();
  const BlockId stab_loop = b.NewBlock();
  const BlockId stab_body = b.NewBlock();
  const BlockId stab_exit = b.NewBlock();
  const BlockId exit = b.NewBlock();

  constexpr RegId kIter = 18;
  constexpr RegId kIters = 19;

  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IConst(kB0, dim);
  b.IConst(kB1, steps);
  b.IConst(kZero, 0);
  b.FConst(kLimit, 2.0);  // command magnitude limit
  b.IConst(kIter, 0);
  b.IConst(kIters, config_.control_iterations);
  b.Jump(refine_loop);

  // --- control-law refinement loop ----------------------------------------
  b.SwitchTo(refine_loop);
  b.ICmpLt(kCond, kIter, kIters);
  b.BranchIfZero(kCond, mode_check, refine_body);

  b.SwitchTo(refine_body);
  b.IConst(kC, 0);
  b.Jump(mv_loop);

  b.SwitchTo(refine_end);
  b.IAddImm(kIter, kIter, 1);
  b.Jump(refine_loop);

  // --- y = A * x ---------------------------------------------------------
  b.SwitchTo(mv_loop);
  b.ICmpLt(kCond, kC, kB0);
  b.BranchIfZero(kCond, dot_init, mv_body);

  b.SwitchTo(mv_body);
  b.FConst(kAcc, 0.0);
  b.IConst(kJ, 0);
  b.Jump(mv_inner);

  b.SwitchTo(mv_inner);
  b.ICmpLt(kCond, kJ, kB0);
  b.BranchIfZero(kCond, mv_store, mv_inner_body);

  b.SwitchTo(mv_inner_body);
  b.IMul(kT0, kC, kB0);
  b.IAdd(kT1, kT0, kJ);
  b.LoadF(kF2, kMatA, kT1);
  b.LoadF(kF6, kSched, kT1);  // gain-scheduled correction term
  b.FAdd(kF2, kF2, kF6);
  b.LoadF(kF3, kStateX, kJ);
  b.FMul(kF4, kF2, kF3);
  b.FAdd(kAcc, kAcc, kF4);
  b.IAddImm(kJ, kJ, 1);
  b.Jump(mv_inner);

  b.SwitchTo(mv_store);
  b.StoreF(kWorkY, kC, kAcc);
  b.IAddImm(kC, kC, 1);
  b.Jump(mv_loop);

  // --- d = K . y ----------------------------------------------------------
  b.SwitchTo(dot_init);
  b.FConst(kF5, 0.0);
  b.IConst(kC, 0);
  b.Jump(dot_loop);

  b.SwitchTo(dot_loop);
  b.ICmpLt(kCond, kC, kB0);
  b.BranchIfZero(kCond, u_init, dot_body);

  b.SwitchTo(dot_body);
  b.LoadF(kF2, kGainK, kC);
  b.LoadF(kF3, kWorkY, kC);
  b.FMul(kF4, kF2, kF3);
  b.FAdd(kF5, kF5, kF4);
  b.IAddImm(kC, kC, 1);
  b.Jump(dot_loop);

  // --- u = y - d*K; magsq = |u|^2 ----------------------------------------
  b.SwitchTo(u_init);
  b.FConst(kF6, 0.0);
  b.IConst(kC, 0);
  b.Jump(u_loop);

  b.SwitchTo(u_loop);
  b.ICmpLt(kCond, kC, kB0);
  b.BranchIfZero(kCond, mag_check, u_body);

  b.SwitchTo(u_body);
  b.LoadF(kF2, kWorkY, kC);
  b.LoadF(kF3, kGainK, kC);
  b.FMul(kF4, kF5, kF3);
  b.FSub(kF2, kF2, kF4);
  b.StoreF(kCmdU, kC, kF2);
  b.FMul(kF4, kF2, kF2);
  b.FAdd(kF6, kF6, kF4);
  b.IAddImm(kC, kC, 1);
  b.Jump(u_loop);

  // --- magnitude limiting -------------------------------------------------
  b.SwitchTo(mag_check);
  b.FSqrt(kF7, kF6);  // |u| (value-dependent FSQRT)
  b.FCmpLt(kCond, kLimit, kF7);
  b.BranchIfZero(kCond, refine_end, clamp_init);

  b.SwitchTo(clamp_init);
  b.IConst(kC, 0);
  b.Jump(clamp_loop);

  b.SwitchTo(clamp_loop);
  b.ICmpLt(kCond, kC, kB0);
  b.BranchIfZero(kCond, refine_end, clamp_body);

  b.SwitchTo(clamp_body);
  b.LoadF(kF2, kCmdU, kC);
  b.FDiv(kF2, kF2, kF7);   // normalize (value-dependent FDIV)
  b.FMul(kF2, kF2, kLimit);
  b.StoreF(kCmdU, kC, kF2);
  b.IAddImm(kC, kC, 1);
  b.Jump(clamp_loop);

  // --- maneuver-mode stabilization pass ------------------------------------
  b.SwitchTo(mode_check);
  b.LoadI(kT0, kAMode, kZero);
  b.BranchIfZero(kT0, exit, stab_init);

  b.SwitchTo(stab_init);
  b.LoadF(kQ0, kQState, kZero, 0);
  b.LoadF(kQ1, kQState, kZero, 1);
  b.LoadF(kQ2, kQState, kZero, 2);
  b.LoadF(kQ3, kQState, kZero, 3);
  b.FConst(kF7, 0.005);  // half dt
  b.IConst(kJ, 0);
  b.Jump(stab_loop);

  b.SwitchTo(stab_loop);
  b.ICmpLt(kCond, kJ, kB1);
  b.BranchIfZero(kCond, stab_exit, stab_body);

  b.SwitchTo(stab_body);
  b.IConst(kT0, 3);
  b.IMul(kT1, kJ, kT0);
  b.LoadF(kF2, kRates, kT1, 0);  // wx
  b.LoadF(kF3, kRates, kT1, 1);  // wy
  b.LoadF(kF4, kRates, kT1, 2);  // wz
  // First-order quaternion update.
  b.FMul(kF5, kF2, kQ1);
  b.FMul(kF5, kF5, kF7);
  b.FAdd(kQ0, kQ0, kF5);
  b.FMul(kF5, kF3, kQ2);
  b.FMul(kF5, kF5, kF7);
  b.FAdd(kQ1, kQ1, kF5);
  b.FMul(kF5, kF4, kQ3);
  b.FMul(kF5, kF5, kF7);
  b.FAdd(kQ2, kQ2, kF5);
  b.FMul(kF5, kF2, kQ0);
  b.FMul(kF5, kF5, kF7);
  b.FSub(kQ3, kQ3, kF5);
  // Renormalize: FSQRT + 4 value-dependent FDIVs.
  b.FMul(kF6, kQ0, kQ0);
  b.FMul(kF5, kQ1, kQ1);
  b.FAdd(kF6, kF6, kF5);
  b.FMul(kF5, kQ2, kQ2);
  b.FAdd(kF6, kF6, kF5);
  b.FMul(kF5, kQ3, kQ3);
  b.FAdd(kF6, kF6, kF5);
  b.FSqrt(kF6, kF6);
  b.FDiv(kQ0, kQ0, kF6);
  b.FDiv(kQ1, kQ1, kF6);
  b.FDiv(kQ2, kQ2, kF6);
  b.FDiv(kQ3, kQ3, kF6);
  b.IAddImm(kJ, kJ, 1);
  b.Jump(stab_loop);

  b.SwitchTo(stab_exit);
  b.StoreF(kQState, kZero, kQ0, 0);
  b.StoreF(kQState, kZero, kQ1, 1);
  b.StoreF(kQState, kZero, kQ2, 2);
  b.StoreF(kQState, kZero, kQ3, 3);
  b.Jump(exit);

  b.SwitchTo(exit);
  // Inlined gain-scheduling / telemetry section, straight-line per job.
  AppendStraightline(b, telemetry, kTelemetryLen,
                     config_.straightline_instructions);
  b.Halt();

  return b.Build();
}

TvcaScenario TvcaApp::DrawScenario(std::uint64_t scenario_seed) const {
  prng::Xoshiro128pp rng(DeriveSeed(scenario_seed, "modes"));
  TvcaScenario s;
  s.calibration = rng.UniformUnit() < config_.calibration_prob;
  s.maneuver_x = rng.UniformUnit() < config_.maneuver_x_prob;
  s.maneuver_y = rng.UniformUnit() < config_.maneuver_y_prob;
  return s;
}

trace::Trace TvcaApp::BuildTaskTrace(TvcaTask task,
                                     std::uint64_t scenario_seed) const {
  return BuildTaskTrace(task, scenario_seed, DrawScenario(scenario_seed));
}

trace::Trace TvcaApp::BuildTaskTrace(TvcaTask task, std::uint64_t input_seed,
                                     const TvcaScenario& scenario) const {
  trace::BlockTrace stream;
  trace::ArrayStore arrays;
  BuildTaskTrace(task, input_seed, scenario, stream, arrays);
  trace::Trace out;
  stream.program->Expand(stream, out.records);
  out.path_signature = stream.path_signature;
  return out;
}

void TvcaApp::BuildTaskTrace(TvcaTask task, std::uint64_t input_seed,
                             const TvcaScenario& scenario,
                             trace::BlockTrace& out,
                             trace::ArrayStore& arrays) const {
  trace::Interpreter interp(Decoded(task), arrays);
  LoadInputs(task, input_seed, scenario, interp);
  SPTA_OBS_SPAN_ARG("trace", "interpret", "task", task);
  interp.Run(out);
}

void TvcaApp::LoadInputs(TvcaTask task, std::uint64_t input_seed,
                         const TvcaScenario& scenario,
                         trace::Interpreter& interp) const {
  prng::Xoshiro128pp rng(DeriveSeed(input_seed, ToString(task)));

  // Each array is written through one span, element by element in the
  // order the values are drawn from `rng`.
  if (task == TvcaTask::kSensorAcq) {
    const int channels = config_.sensor_channels;
    const int row = config_.samples_per_frame + config_.fir_taps;
    const std::span<std::int32_t> raw = interp.IntArray(kRaw);
    const std::span<double> gains = interp.FpArray(kGains);
    for (int c = 0; c < channels; ++c) {
      for (int i = 0; i < row; ++i) {
        double v = 2048.0 +
                   600.0 * std::sin(0.31 * static_cast<double>(i) +
                                    0.8 * static_cast<double>(c)) +
                   50.0 * rng.Normal();
        if (rng.UniformUnit() < config_.spike_prob) v += 4000.0;
        raw[static_cast<std::size_t>(c * row + i)] =
            static_cast<std::int32_t>(v);
      }
      gains[static_cast<std::size_t>(c)] = 0.0005 * rng.UniformReal(0.9, 1.1);
    }
    const std::span<double> coef = interp.FpArray(kCoef);
    for (int k = 0; k < config_.fir_taps; ++k) {
      coef[static_cast<std::size_t>(k)] =
          (1.0 / config_.fir_taps) * rng.UniformReal(0.8, 1.2);
    }
    interp.IntArray(kSMode)[0] = scenario.calibration ? 1 : 0;
  } else {
    const bool maneuver = task == TvcaTask::kActuatorX ? scenario.maneuver_x
                                                       : scenario.maneuver_y;
    const int dim = config_.state_dim;
    const int steps = task == TvcaTask::kActuatorX
                          ? config_.integrator_steps / 2 + 1
                          : config_.integrator_steps;
    const std::span<double> mat_a = interp.FpArray(kMatA);
    const std::span<double> sched = interp.FpArray(kSched);
    const std::span<double> gain_k = interp.FpArray(kGainK);
    const std::span<double> state_x = interp.FpArray(kStateX);
    for (int i = 0; i < dim; ++i) {
      for (int j = 0; j < dim; ++j) {
        double a = 0.1 * (rng.UniformUnit() - 0.5);
        if (i == j) a += 0.85;
        const auto ij = static_cast<std::size_t>(i * dim + j);
        mat_a[ij] = a;
        sched[ij] = 0.05 * (rng.UniformUnit() - 0.5);
      }
      gain_k[static_cast<std::size_t>(i)] = rng.UniformReal(0.3, 0.5);
      const double amp = maneuver ? 1.4 : 0.35;
      state_x[static_cast<std::size_t>(i)] = amp * rng.Normal();
    }
    interp.IntArray(kAMode)[0] = maneuver ? 1 : 0;
    const std::span<double> rates = interp.FpArray(kRates);
    for (int s = 0; s < 3 * steps; ++s) {
      const double amp = maneuver ? rng.UniformReal(0.6, 1.4)
                                  : rng.UniformReal(0.02, 0.12);
      rates[static_cast<std::size_t>(s)] =
          amp * (rng.UniformUnit() < 0.5 ? -1.0 : 1.0);
    }
    // Unit quaternion initial attitude.
    const std::span<double> q_state = interp.FpArray(kQState);
    q_state[0] = 1.0;
    q_state[1] = 0.0;
    q_state[2] = 0.0;
    q_state[3] = 0.0;
  }
}

TvcaFrame TvcaApp::BuildFrame(std::uint64_t scenario_seed) const {
  FrameScratch scratch;
  const FrameSpans& spans = BuildFrame(scenario_seed, scratch);
  TvcaFrame frame;
  frame.scenario = spans.scenario;
  frame.path_id = spans.path_id;
  trace::Flatten(spans.segments, frame.trace.records);
  frame.trace.path_signature = frame.path_id;
  return frame;
}

const FrameSpans& TvcaApp::BuildFrame(std::uint64_t scenario_seed,
                                      FrameScratch& scratch) const {
  SPTA_OBS_SPAN("apps", "build_frame");
  FrameSpans& frame = scratch.frame;
  frame.scenario = DrawScenario(scenario_seed);
  frame.path_id = frame.scenario.PathId();

  // Job inputs differ across the two releases of each actuator task, but
  // every job of the frame shares the frame's mode flags (the path).
  auto& [sensor, x1, x2, y1, y2] = scratch.jobs;
  const auto job = [&](TvcaTask task, std::uint64_t input_seed,
                       trace::BlockTrace& out) {
    BuildTaskTrace(task, input_seed, frame.scenario, out,
                   scratch.arrays[static_cast<std::size_t>(task)]);
  };
  job(TvcaTask::kSensorAcq, scenario_seed, sensor);
  job(TvcaTask::kActuatorX, scenario_seed, x1);
  job(TvcaTask::kActuatorX, DeriveSeed(scenario_seed, "x-job2"), x2);
  job(TvcaTask::kActuatorY, scenario_seed, y1);
  job(TvcaTask::kActuatorY, DeriveSeed(scenario_seed, "y-job2"), y2);

  FrameComposer::Options opts;
  opts.dispatch_overhead_instructions = config_.dispatch_overhead;
  const FrameComposer composer(opts);
  // Cyclic executive: sensor at the major-frame rate, actuators at twice
  // that rate (one job per minor frame). Minor frame 1 re-executes the
  // actuator code and data after the sensor task has competed for cache
  // space — the reuse pattern a real rate-group schedule produces.
  const std::array<FrameSlot, 5> slots = {{
      {&sensor, 1, /*priority=*/1, /*minor=*/0},
      {&x1, 1, 2, 0},
      {&y1, 1, 3, 0},
      {&x2, 1, 2, 1},
      {&y2, 1, 3, 1},
  }};
  {
    SPTA_OBS_SPAN("apps", "compose");
    if (scratch.dispatch_overhead != config_.dispatch_overhead) {
      scratch.dispatch.clear();
      scratch.dispatch_overhead = config_.dispatch_overhead;
    }
    // The frame's path is its path id, not the composed job signature, so
    // runs on the same modes but different fine-grained inputs are the
    // same application path.
    composer.ComposeSpans(slots, scratch.dispatch, frame.segments);
  }
  return frame;
}

std::vector<PeriodicTaskSpec> TvcaApp::TaskSpecs() const {
  // Periods sized so the default workload's per-task pWCET budgets load
  // the core to ~70-75% (a realistic design point with certification
  // headroom): sensor at the fast rate, actuators at half that rate.
  return {
      {"sensor-acq", 600'000, 600'000, 1},
      {"actuator-x", 1'200'000, 1'200'000, 2},
      {"actuator-y", 1'200'000, 1'200'000, 3},
  };
}

}  // namespace spta::apps
