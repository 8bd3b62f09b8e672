#include "sim/batch/prepared_trace.hpp"

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "sim/fetch_rule.hpp"

namespace spta::sim::batch {

std::uint64_t TimingDigest(const PlatformConfig& config) {
  std::uint64_t h = DeriveSeed(0, "batch-timing");
  h = HashCombine(h, config.il1.line_bytes);
  h = HashCombine(h, config.itlb.page_bytes);
  h = HashCombine(h, config.pipeline.int_alu);
  h = HashCombine(h, config.pipeline.int_mul);
  h = HashCombine(h, config.pipeline.int_div);
  h = HashCombine(h, config.pipeline.taken_branch_penalty);
  h = HashCombine(h, config.pipeline.load_use_stall);
  h = HashCombine(h, static_cast<std::uint64_t>(config.fpu.mode));
  h = HashCombine(h, config.fpu.add_latency);
  h = HashCombine(h, config.fpu.mul_latency);
  h = HashCombine(h, config.fpu.div_base);
  h = HashCombine(h, config.fpu.div_step);
  h = HashCombine(h, config.fpu.sqrt_base);
  h = HashCombine(h, config.fpu.sqrt_step);
  return h;
}

PreparedTrace PrepareTrace(const trace::Trace& t,
                           const PlatformConfig& config) {
  using trace::OpClass;

  PreparedTrace out;
  out.instructions = t.records.size();
  out.path_signature = t.path_signature;
  out.timing_digest = TimingDigest(config);
  out.events.reserve(t.records.size() / 4 + 1);

  // The FPU latency model is lane-invariant (record-determined in both
  // modes), so one replay here yields every lane's latencies and stats.
  Fpu fpu(config.fpu);
  FetchRule fetch(config);
  std::uint8_t pending_load_reg = trace::kNoReg;

  for (const trace::TraceRecord& rec : t.records) {
    // The fetch outcome is statically a hit only when the previous
    // record's fetch touched the same line/page (sim/fetch_rule.hpp); the
    // first record of a run starts from flushed state.
    const FetchRule::Repeat repeat = fetch.Next(rec.pc);
    const bool itlb_full = !repeat.page;
    const bool il1_full = !repeat.line;

    Cycles cost = 0;
    if (rec.Reads(pending_load_reg)) cost += config.pipeline.load_use_stall;
    pending_load_reg =
        rec.op == OpClass::kLoad ? rec.dst_reg : trace::kNoReg;

    BatchEvent::Kind kind = BatchEvent::Kind::kFetch;
    switch (rec.op) {
      case OpClass::kIntAlu:
      case OpClass::kNop:
        cost += config.pipeline.int_alu;
        break;
      case OpClass::kIntMul:
        cost += config.pipeline.int_mul;
        break;
      case OpClass::kIntDiv:
        cost += config.pipeline.int_div;
        break;
      case OpClass::kBranch:
        cost += config.pipeline.int_alu;
        if (rec.branch_taken) cost += config.pipeline.taken_branch_penalty;
        break;
      case OpClass::kFpAdd:
      case OpClass::kFpMul:
      case OpClass::kFpDiv:
      case OpClass::kFpSqrt:
        cost += fpu.Latency(rec.op, rec.fpu_operand_class);
        break;
      case OpClass::kLoad:
        cost += config.pipeline.int_alu;
        kind = BatchEvent::Kind::kLoad;
        break;
      case OpClass::kStore:
        cost += config.pipeline.int_alu;
        kind = BatchEvent::Kind::kStore;
        break;
    }

    if (kind == BatchEvent::Kind::kFetch && !itlb_full && !il1_full) {
      // Fetch-only record with both lookups guaranteed MRU hits: merge
      // into the running bulk event.
      if (!out.events.empty() &&
          out.events.back().kind == BatchEvent::Kind::kBulkFetch) {
        BatchEvent& bulk = out.events.back();
        ++bulk.count;
        bulk.cycles += cost;
        continue;
      }
      out.events.push_back({BatchEvent::Kind::kBulkFetch, false, false, 1,
                            cost, 0, 0});
      continue;
    }
    out.events.push_back(
        {kind, itlb_full, il1_full, 1, cost, rec.pc, rec.mem_addr});
  }

  out.fpu = fpu.stats();
  return out;
}

}  // namespace spta::sim::batch
