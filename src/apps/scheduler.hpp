// Fixed-priority scheduling: trace-level frame composition and a
// discrete-time preemptive scheduler simulator.
//
// TVCA runs bare-metal with a fixed-priority scheduler over 3 periodic
// tasks (paper Section III). Two complementary views are provided:
//
//  * FrameComposer — builds the *measured entity*: the end-to-end dynamic
//    trace of one major frame, with each task's jobs dispatched in priority
//    order and explicit dispatcher-overhead instructions between jobs (the
//    RTOS tick/dispatch code also occupies cache and costs time).
//
//  * SimulateFixedPriority / within rta.hpp — scheduling analysis over
//    execution-time *budgets*, used to turn pWCET estimates into
//    schedulability statements.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/interpreter.hpp"
#include "trace/record.hpp"

namespace spta::apps {

/// Static description of a periodic task.
struct PeriodicTaskSpec {
  std::string name;
  Cycles period = 0;    ///< Release period.
  Cycles deadline = 0;  ///< Relative deadline (<= period).
  int priority = 0;     ///< Smaller value = higher priority.
};

/// One job of a major frame: a task's trace (as records or as a block
/// stream), its priority, and the minor frame in which it is released
/// (harmonic schedules release jobs of the faster tasks in every minor
/// frame).
struct FrameSlot {
  FrameSlot(const trace::Trace* trace, int jobs, int priority, int minor)
      : job_trace(trace), jobs(jobs), priority(priority), minor(minor) {}
  FrameSlot(const trace::BlockTrace* blocks, int jobs, int priority,
            int minor)
      : job_blocks(blocks), jobs(jobs), priority(priority), minor(minor) {}

  const trace::Trace* job_trace = nullptr;
  const trace::BlockTrace* job_blocks = nullptr;  ///< Set instead.
  int jobs = 1;      ///< Back-to-back repeats of this trace in the minor.
  int priority = 0;  ///< Smaller = higher priority.
  int minor = 0;     ///< Minor frame index this job is released in.
};

/// Composes the dynamic trace of one major frame, cyclic-executive style:
/// minor frames run in order; within a minor frame the released jobs run
/// in priority order (highest first). Each job is preceded by dispatcher
/// overhead of `dispatch_overhead_instructions` synthetic RTOS instructions
/// touching the kernel's TCB region. The frame's path signature combines
/// the slot signatures, so per-path analysis distinguishes frames whose
/// tasks took different paths.
class FrameComposer {
 public:
  struct Options {
    std::size_t dispatch_overhead_instructions = 64;
    Address kernel_code_base = 0x40f00000;
    Address kernel_data_base = 0x40f80000;
  };

  FrameComposer() : FrameComposer(Options{}) {}
  explicit FrameComposer(Options options);

  /// Composes the frame without copying it: replaces `segments` (capacity
  /// kept) with the frame's ordered segment list — for each job in
  /// execution order, its dispatcher block, then the job (its records or
  /// its block stream) — and returns the frame's path signature. This
  /// defines the composition order; every other form of the frame
  /// flattens this list.
  ///
  /// `dispatch` caches dispatcher blocks: block k, the dispatch before the
  /// frame's k-th job, is records [k*n, (k+1)*n) with n the dispatch
  /// overhead. Missing blocks are appended, so a caller that keeps
  /// `dispatch` across frames (always with the same Options) builds each
  /// block once. The segments point into `dispatch` and the job traces.
  std::uint64_t ComposeSpans(std::span<const FrameSlot> slots,
                             std::vector<trace::TraceRecord>& dispatch,
                             std::vector<trace::Segment>& segments) const;

  /// The flattened segment list as one trace.
  trace::Trace ComposeMajorFrame(const std::vector<FrameSlot>& slots) const;

 private:
  void AppendDispatcher(std::vector<trace::TraceRecord>& out,
                        int job_index) const;

  Options options_;
};

/// Result of simulating one task under fixed-priority preemptive scheduling.
struct ScheduledTaskResult {
  std::string name;
  Cycles worst_response = 0;  ///< Max response time over simulated jobs.
  std::uint64_t jobs_released = 0;
  std::uint64_t deadline_misses = 0;
};

/// Simulates preemptive fixed-priority scheduling of `tasks` (budgets in
/// `wcet[i]` cycles) over `horizon` cycles on one core, releases at t=0 and
/// every period. Returns per-task worst response times and deadline misses.
/// Requires distinct priorities.
std::vector<ScheduledTaskResult> SimulateFixedPriority(
    const std::vector<PeriodicTaskSpec>& tasks,
    const std::vector<Cycles>& wcet, Cycles horizon);

/// Least common multiple of the task periods (the hyperperiod); saturates
/// at ~2^62 to avoid overflow.
Cycles Hyperperiod(const std::vector<PeriodicTaskSpec>& tasks);

/// Total utilization sum(wcet_i / period_i).
double Utilization(const std::vector<PeriodicTaskSpec>& tasks,
                   const std::vector<Cycles>& wcet);

}  // namespace spta::apps
