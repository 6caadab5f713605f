#include "src/cpu/pipeline_model.h"

namespace dcpi {

namespace {
constexpr uint8_t kMaskE0 = 1 << static_cast<int>(IssueSlot::kE0);
constexpr uint8_t kMaskE1 = 1 << static_cast<int>(IssueSlot::kE1);
constexpr uint8_t kMaskFA = 1 << static_cast<int>(IssueSlot::kFA);
constexpr uint8_t kMaskFM = 1 << static_cast<int>(IssueSlot::kFM);
}  // namespace

uint8_t PipelineModel::SlotMask(const DecodedInst& inst) {
  switch (inst.klass()) {
    case InstrClass::kLoad:
      return kMaskE0 | kMaskE1;
    case InstrClass::kStore:
      return kMaskE0;
    case InstrClass::kIntOp:
    case InstrClass::kLoadAddress:
      return kMaskE0 | kMaskE1;
    case InstrClass::kIntMul:
      return kMaskE0;
    case InstrClass::kFpOp:
      // ftoit moves through the integer side on real hardware; we keep it in
      // E0 via its class override below.
      return inst.op == Opcode::kFtoit ? kMaskE0 : kMaskFA;
    case InstrClass::kFpMul:
      return kMaskFM;
    case InstrClass::kFpDiv:
      return kMaskFA;
    case InstrClass::kCondBranch:
    case InstrClass::kUncondBranch:
    case InstrClass::kJump:
      return kMaskE1;
    case InstrClass::kBarrier:
    case InstrClass::kPal:
      return kMaskE0;
  }
  return kMaskE0;
}

uint64_t PipelineModel::ResultLatency(const DecodedInst& inst) const {
  switch (inst.klass()) {
    case InstrClass::kLoad:
      return config_.load_hit_latency;
    case InstrClass::kIntOp:
    case InstrClass::kLoadAddress:
      return config_.int_latency;
    case InstrClass::kIntMul:
      return config_.imul_latency;
    case InstrClass::kFpOp:
      return config_.fp_latency;
    case InstrClass::kFpMul:
      return config_.fpmul_latency;
    case InstrClass::kFpDiv:
      return config_.fdiv_latency;
    case InstrClass::kStore:
    case InstrClass::kCondBranch:
    case InstrClass::kUncondBranch:
    case InstrClass::kJump:
    case InstrClass::kBarrier:
    case InstrClass::kPal:
      return config_.int_latency;  // return-address writers etc.
  }
  return config_.int_latency;
}

uint64_t PipelineModel::UnitRepeat(const DecodedInst& inst) const {
  if (UsesImul(inst)) return config_.imul_repeat;
  if (UsesFdiv(inst)) return config_.fdiv_repeat;
  return 0;
}

bool PipelineModel::EndsGroup(const DecodedInst& inst) {
  return inst.IsControlFlow() || IssuesAlone(inst);
}

bool PipelineModel::IssuesAlone(const DecodedInst& inst) {
  InstrClass k = inst.klass();
  return k == InstrClass::kBarrier || k == InstrClass::kPal;
}

}  // namespace dcpi
