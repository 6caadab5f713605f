// A simulated process: registers + address space + scheduling state.

#ifndef SRC_KERNEL_PROCESS_H_
#define SRC_KERNEL_PROCESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cpu/exec_context.h"
#include "src/kernel/address_space.h"

namespace dcpi {

class ExecutableImage;

enum class ProcessState { kReady, kRunning, kDone };

class Process : public ExecContext {
 public:
  Process(uint32_t pid, std::string name, uint64_t page_seed)
      : pid_(pid), name_(std::move(name)), aspace_(page_seed) {}

  // ExecContext.
  uint32_t pid() const override { return pid_; }
  RegFile& regs() override { return regs_; }
  bool LoadData(uint64_t vaddr, unsigned size, uint64_t* out) override {
    return aspace_.Load(vaddr, size, out);
  }
  bool StoreData(uint64_t vaddr, unsigned size, uint64_t value) override {
    return aspace_.Store(vaddr, size, value);
  }
  uint64_t Translate(uint64_t vaddr) override { return aspace_.Translate(vaddr); }
  TextWindow FetchText(uint64_t pc) override { return aspace_.TextAt(pc); }

  const std::string& name() const { return name_; }
  AddressSpace& aspace() { return aspace_; }

  // Images mapped at creation, recorded so the kernel can emit per-image
  // unload events when the process exits (the daemon retires the matching
  // load-map entries at the next epoch roll).
  void AddImage(std::shared_ptr<const ExecutableImage> image) {
    images_.push_back(std::move(image));
  }
  const std::vector<std::shared_ptr<const ExecutableImage>>& images() const {
    return images_;
  }

  ProcessState state() const { return state_; }
  void set_state(ProcessState state) { state_ = state; }

  uint64_t cpu_cycles() const { return cpu_cycles_; }
  void AddCpuCycles(uint64_t cycles) { cpu_cycles_ += cycles; }
  uint64_t instructions() const { return instructions_; }
  void AddInstructions(uint64_t n) { instructions_ += n; }

 private:
  uint32_t pid_;
  std::string name_;
  RegFile regs_;
  AddressSpace aspace_;
  std::vector<std::shared_ptr<const ExecutableImage>> images_;
  ProcessState state_ = ProcessState::kReady;
  uint64_t cpu_cycles_ = 0;
  uint64_t instructions_ = 0;
};

}  // namespace dcpi

#endif  // SRC_KERNEL_PROCESS_H_
