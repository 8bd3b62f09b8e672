#include "apps/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace spta::apps {

FrameComposer::FrameComposer(Options options) : options_(options) {}

void FrameComposer::AppendDispatcher(std::vector<trace::TraceRecord>& out,
                                     int job_index) const {
  // A deterministic stand-in for the RTOS dispatch path: walk the TCB
  // array (loads), update the ready queue (stores), take the dispatch
  // branch. Code and data live in a dedicated kernel region so the
  // dispatcher competes for cache space with the tasks, as on real systems.
  using trace::OpClass;
  using trace::TraceRecord;
  const std::size_t n = options_.dispatch_overhead_instructions;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.pc = options_.kernel_code_base + 4 * (i % 160);
    const std::size_t phase = i % 8;
    if (phase < 2) {
      r.op = OpClass::kLoad;  // TCB fields
      r.mem_addr = options_.kernel_data_base +
                   32ULL * static_cast<std::uint64_t>(job_index % 16) +
                   4 * phase;
    } else if (phase == 2) {
      r.op = OpClass::kStore;  // ready-queue update
      r.mem_addr = options_.kernel_data_base + 0x400 +
                   8ULL * static_cast<std::uint64_t>(job_index % 32);
    } else if (phase == 7) {
      r.op = OpClass::kBranch;
      r.branch_taken = true;
    } else {
      r.op = OpClass::kIntAlu;
    }
    out.push_back(r);
  }
}

std::uint64_t FrameComposer::ComposeSpans(
    std::span<const FrameSlot> slots, std::vector<trace::TraceRecord>& dispatch,
    std::vector<trace::Segment>& segments) const {
  SPTA_REQUIRE(!slots.empty());
  const std::size_t n = options_.dispatch_overhead_instructions;
  SPTA_REQUIRE(dispatch.size() % std::max<std::size_t>(n, 1) == 0);
  std::vector<const FrameSlot*> order;
  order.reserve(slots.size());
  std::size_t jobs = 0;
  for (const auto& s : slots) {
    SPTA_REQUIRE((s.job_trace != nullptr) != (s.job_blocks != nullptr) &&
                 s.jobs >= 1 && s.minor >= 0);
    order.push_back(&s);
    jobs += static_cast<std::size_t>(s.jobs);
  }
  // Minor frame first, then priority within the minor frame.
  std::stable_sort(order.begin(), order.end(),
                   [](const FrameSlot* a, const FrameSlot* b) {
                     if (a->minor != b->minor) return a->minor < b->minor;
                     return a->priority < b->priority;
                   });
  // Build every missing block before taking spans into `dispatch`.
  for (std::size_t k = n == 0 ? jobs : dispatch.size() / n; k < jobs; ++k) {
    AppendDispatcher(dispatch, static_cast<int>(k));
  }
  segments.clear();
  std::uint64_t sig = 0x9e3779b9u;
  std::size_t job_index = 0;
  for (const FrameSlot* slot : order) {
    for (int j = 0; j < slot->jobs; ++j) {
      segments.push_back({{dispatch.data() + job_index++ * n, n}, nullptr});
      if (slot->job_blocks != nullptr) {
        segments.push_back({{}, slot->job_blocks});
        sig = HashCombine(sig, slot->job_blocks->path_signature);
      } else {
        segments.push_back({slot->job_trace->records, nullptr});
        sig = HashCombine(sig, slot->job_trace->path_signature);
      }
    }
  }
  return sig;
}

trace::Trace FrameComposer::ComposeMajorFrame(
    const std::vector<FrameSlot>& slots) const {
  std::vector<trace::TraceRecord> dispatch;
  std::vector<trace::Segment> segments;
  trace::Trace out;
  out.path_signature = ComposeSpans(slots, dispatch, segments);
  trace::Flatten(segments, out.records);
  return out;
}

Cycles Hyperperiod(const std::vector<PeriodicTaskSpec>& tasks) {
  SPTA_REQUIRE(!tasks.empty());
  Cycles l = 1;
  constexpr Cycles kCap = 1ULL << 62;
  for (const auto& t : tasks) {
    SPTA_REQUIRE(t.period > 0);
    const Cycles g = std::gcd(l, t.period);
    if (l / g > kCap / t.period) return kCap;
    l = l / g * t.period;
  }
  return l;
}

double Utilization(const std::vector<PeriodicTaskSpec>& tasks,
                   const std::vector<Cycles>& wcet) {
  SPTA_REQUIRE(tasks.size() == wcet.size());
  double u = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    u += static_cast<double>(wcet[i]) / static_cast<double>(tasks[i].period);
  }
  return u;
}

std::vector<ScheduledTaskResult> SimulateFixedPriority(
    const std::vector<PeriodicTaskSpec>& tasks,
    const std::vector<Cycles>& wcet, Cycles horizon) {
  SPTA_REQUIRE(!tasks.empty());
  SPTA_REQUIRE(tasks.size() == wcet.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    SPTA_REQUIRE(tasks[i].period > 0 && tasks[i].deadline > 0);
    for (std::size_t j = i + 1; j < tasks.size(); ++j) {
      SPTA_REQUIRE_MSG(tasks[i].priority != tasks[j].priority,
                       "priorities must be distinct");
    }
  }

  struct Job {
    std::size_t task;
    Cycles release;
    Cycles remaining;
    Cycles absolute_deadline;
  };
  std::vector<ScheduledTaskResult> results(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    results[i].name = tasks[i].name;
  }

  // Event-driven simulation: at any moment run the highest-priority ready
  // job until it finishes or the next release preempts it.
  std::vector<Job> ready;
  std::vector<Cycles> next_release(tasks.size(), 0);
  Cycles now = 0;
  while (now < horizon) {
    // Release everything due at `now`.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      while (next_release[i] <= now) {
        ready.push_back({i, next_release[i], wcet[i],
                         next_release[i] + tasks[i].deadline});
        ++results[i].jobs_released;
        next_release[i] += tasks[i].period;
      }
    }
    // Earliest future release (preemption point).
    Cycles next_event = horizon;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      next_event = std::min(next_event, next_release[i]);
    }
    if (ready.empty()) {
      now = next_event;
      continue;
    }
    // Pick the highest-priority ready job.
    auto it = std::min_element(
        ready.begin(), ready.end(), [&](const Job& a, const Job& b) {
          return tasks[a.task].priority < tasks[b.task].priority;
        });
    const Cycles slice = std::min(it->remaining, next_event - now);
    SPTA_CHECK(slice > 0);
    it->remaining -= slice;
    now += slice;
    if (it->remaining == 0) {
      ScheduledTaskResult& r = results[it->task];
      const Cycles response = now - it->release;
      r.worst_response = std::max(r.worst_response, response);
      if (now > it->absolute_deadline) ++r.deadline_misses;
      ready.erase(it);
    }
  }
  return results;
}

}  // namespace spta::apps
