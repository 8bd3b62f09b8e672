// Thrust Vector Control Application (TVCA) model.
//
// The paper's case study is an ESA-developed hard-real-time TVC application:
// C code auto-generated from a closed-loop control model, running bare-metal
// under a fixed-priority scheduler with 3 periodic tasks — sensor data
// acquisition, actuator control in the x axis, actuator control in the y
// axis. The original is proprietary, so this module builds a synthetic
// equivalent with the same structure:
//
//  * kSensorAcq — per-channel ADC scaling + FIR filtering + range checks,
//    with an occasional frame-level calibration pass.
//  * kActuatorX / kActuatorY — state-space control law (matrix-vector
//    products), command-magnitude limiting with FSQRT/FDIV, and an optional
//    maneuver-mode stabilization pass with an attitude-style integrator.
//
// Inputs for each frame are drawn deterministically from a scenario seed
// (sensor noise/spikes, state estimates, body rates, mode flags). Frame
// modes define the application-level *path* used by MBPTA per-path
// analysis: 8 paths from the {calibration, maneuver-x, maneuver-y} flags.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "apps/scheduler.hpp"
#include "common/types.hpp"
#include "trace/interpreter.hpp"
#include "trace/program.hpp"
#include "trace/record.hpp"

namespace spta::apps {

enum class TvcaTask : std::uint8_t {
  kSensorAcq = 0,
  kActuatorX = 1,
  kActuatorY = 2,
};

const char* ToString(TvcaTask task);

/// Workload sizing knobs (defaults produce ~60k instructions per frame,
/// with a data footprint comparable to the 16KB L1 caches so that cache
/// placement genuinely matters — as for the real TVCA on the real LEON3).
struct TvcaConfig {
  int sensor_channels = 12;
  int samples_per_frame = 24;
  int fir_taps = 12;
  int state_dim = 32;
  int integrator_steps = 24;
  /// Iterations of the control-law refinement loop (each re-walks the
  /// state matrices, creating the reuse that makes cache placement matter).
  int control_iterations = 3;
  /// Auto-generated control code is dominated by large inlined
  /// straight-line sections; each task executes one of this many static
  /// instructions per job. Sized so the three tasks' code together
  /// overflows the 16KB IL1 (the real TVCA binary dwarfs L1).
  int straightline_instructions = 1800;
  /// Probability of the frame-level modes (per frame).
  double calibration_prob = 0.2;
  double maneuver_x_prob = 0.3;
  double maneuver_y_prob = 0.3;
  /// Per-sample probability of a sensor spike (takes the saturation path).
  double spike_prob = 0.02;
  /// Dispatcher overhead instructions per job.
  std::size_t dispatch_overhead = 192;
  /// Link-map seed: 0 = canonical packed layout; nonzero inserts
  /// deterministic inter-array padding (a different link map). Changes the
  /// relative cache alignment of data objects — the layout risk that
  /// random placement removes.
  std::uint64_t layout_seed = 0;
};

/// Frame-level operating modes; these determine the application path.
struct TvcaScenario {
  bool calibration = false;
  bool maneuver_x = false;
  bool maneuver_y = false;

  /// Path identifier in [0, 8).
  std::uint32_t PathId() const {
    return (calibration ? 1u : 0u) | (maneuver_x ? 2u : 0u) |
           (maneuver_y ? 4u : 0u);
  }
};

/// One composed major frame ready for measurement.
struct TvcaFrame {
  trace::Trace trace;
  TvcaScenario scenario;
  std::uint32_t path_id = 0;
};

/// One major frame as an ordered segment list: dispatcher block k (a
/// record span), then job k (a block stream), for k = 0..4
/// (FrameComposer::ComposeSpans). The segments point into the
/// FrameScratch that built it and stay valid until the scratch's next
/// frame. sim::Core::Run retires the list as one stream.
struct FrameSpans {
  std::vector<trace::Segment> segments;
  TvcaScenario scenario;
  std::uint32_t path_id = 0;
};

/// Caller-owned buffers for building frames in place: the five job block
/// streams, each task's interpreter arrays and the dispatcher blocks the
/// frame's segments point into. There is no composed frame buffer and no
/// job records. BuildFrame(seed, scratch) overwrites the job streams and
/// re-zeroes the arrays, keeping the capacity of both, so a scratch reused
/// across frames stops allocating once it has held the longest path; the
/// dispatcher blocks are built on the scratch's first frame. A new scratch
/// holds no memory until its first frame. Campaign runners keep one per
/// worker.
struct FrameScratch {
  std::array<trace::BlockTrace, 5> jobs;
  /// Interpreter arrays by TvcaTask; each job's interpreter zeroes its
  /// task's store before the job's inputs are written.
  std::array<trace::ArrayStore, 3> arrays;
  std::vector<trace::TraceRecord> dispatch;
  /// The dispatch overhead `dispatch` was built for.
  std::size_t dispatch_overhead = 0;
  FrameSpans frame;
};

class TvcaApp {
 public:
  TvcaApp() : TvcaApp(TvcaConfig{}) {}
  explicit TvcaApp(const TvcaConfig& config);

  /// Draws the frame scenario (modes) for `scenario_seed`.
  TvcaScenario DrawScenario(std::uint64_t scenario_seed) const;

  /// Builds the dynamic trace of one job of `task` under `scenario_seed`
  /// (deterministic: same seed -> same trace). The frame modes are drawn
  /// from the same seed.
  trace::Trace BuildTaskTrace(TvcaTask task,
                              std::uint64_t scenario_seed) const;

  /// As above but with the frame modes pinned to `scenario` while the
  /// fine-grained inputs still derive from `input_seed` (used so all jobs
  /// of one frame agree on the application path).
  trace::Trace BuildTaskTrace(TvcaTask task, std::uint64_t input_seed,
                              const TvcaScenario& scenario) const;

  /// As above, writing the job's block stream into `out` (see
  /// Interpreter::Run(BlockTrace&)) and running the job on the arrays in
  /// `arrays`; the stream's records are the trace above.
  void BuildTaskTrace(TvcaTask task, std::uint64_t input_seed,
                      const TvcaScenario& scenario, trace::BlockTrace& out,
                      trace::ArrayStore& arrays) const;

  /// Builds the full major frame: sensor acquisition (highest priority),
  /// then the first actuator-X and actuator-Y jobs, then the second ones,
  /// each preceded by a dispatcher block. Returns it as a segment list
  /// into `scratch` (`scratch.frame`), valid until the scratch's next
  /// frame.
  const FrameSpans& BuildFrame(std::uint64_t scenario_seed,
                               FrameScratch& scratch) const;

  /// As above, expanded into one owned trace: the same records, in the
  /// same order.
  TvcaFrame BuildFrame(std::uint64_t scenario_seed) const;

  /// The periodic task set (periods/deadlines in cycles, rate-monotonic
  /// priorities) used by the schedulability examples.
  std::vector<PeriodicTaskSpec> TaskSpecs() const;

  const TvcaConfig& config() const { return config_; }

  /// Access to the underlying programs (for inspection/tests).
  const trace::Program& program(TvcaTask task) const;

 private:
  trace::Program BuildSensorProgram() const;
  trace::Program BuildActuatorProgram(const char* name, int dim,
                                      int steps) const;
  /// Writes the job inputs of `task` into `interp`.
  void LoadInputs(TvcaTask task, std::uint64_t input_seed,
                  const TvcaScenario& scenario,
                  trace::Interpreter& interp) const;

  /// programs_[task] decoded for the interpreter on first use. Decoding
  /// fills ~0.4 MB of tables; done eagerly it made constructing an app
  /// (which users do before any job, and often without one) half again
  /// as costly.
  const trace::DecodedProgram& Decoded(TvcaTask task) const;

  TvcaConfig config_;
  std::array<trace::Program, 3> programs_;
  mutable std::array<std::once_flag, 3> decode_once_;
  mutable std::array<trace::DecodedProgram, 3> decoded_;
};

}  // namespace spta::apps
