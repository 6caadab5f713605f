#include "src/kernel/kernel.h"

#include <algorithm>
#include <cassert>

#include "src/isa/assembler.h"

namespace dcpi {

namespace {

constexpr uint64_t kVmunixBase = 0x0010'0000;
constexpr uint64_t kStackBase = 0x7800'0000;
constexpr uint64_t kStackSize = 1 << 20;

// The simulated kernel image: an idle loop, the context-switch path, and a
// small checksum helper exercised by the switch path (so /vmunix shows up
// in profiles with more than one hot procedure, as in Figure 1).
constexpr char kVmunixSource[] = R"(
        .text
        .proc idle_loop
        li    r1, 48
idle_spin:
        subq  r1, 1, r1
        bne   r1, idle_spin
        yield
        .endp

        .proc in_checksum
        lia   r1, kbuf
        li    r2, 24
        bis   r31, r31, r3
cksum_loop:
        ldq   r4, 0(r1)
        addq  r3, r4, r3
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, cksum_loop
        lia   r1, kbuf
        stq   r3, 0(r1)
        ret   r31, (r26)
        .endp

        .proc swtch
        lia   r1, kstate
        li    r2, 12
swtch_loop:
        ldq   r3, 0(r1)
        addq  r3, 1, r3
        stq   r3, 0(r1)
        lda   r1, 8(r1)
        subq  r2, 1, r2
        bne   r2, swtch_loop
        bsr   r26, in_checksum
        yield
        .endp

        .data
kstate: .space 128
kbuf:   .space 256
)";

}  // namespace

Kernel::Kernel(const KernelConfig& config)
    : config_(config), ground_truth_(config.record_ground_truth) {
  for (uint32_t i = 0; i < config.num_cpus; ++i) {
    cpus_.push_back(std::make_unique<Cpu>(i, config.cpu));
    if (config.record_ground_truth) {
      truth_shards_.push_back(std::make_unique<GroundTruth>());
      cpus_.back()->set_ground_truth(truth_shards_.back().get());
    }
  }
  run_queues_.resize(config.num_cpus);
  exited_.resize(config.num_cpus);

  Result<std::shared_ptr<ExecutableImage>> vmunix =
      Assemble("/vmunix", kVmunixBase, kVmunixSource);
  assert(vmunix.ok() && "vmunix must assemble");
  vmunix_ = vmunix.value();
  const PredecodedImage* predecoded = registry_.Register(vmunix.value());
  ground_truth_.AddImage(vmunix.value());
  for (auto& shard : truth_shards_) shard->AddImage(vmunix.value());

  // Every CPU gets its own kernel context (pid 0) so the swtch/idle paths
  // run concurrently without sharing registers or kernel data pages. CPU
  // 0 keeps the historical page seed so single-CPU runs are bit-identical.
  for (uint32_t i = 0; i < config.num_cpus; ++i) {
    kernel_procs_.push_back(
        std::make_unique<Process>(0, "kernel", config_.seed * 977 + 13 + i));
    Status mapped = kernel_procs_.back()->aspace().MapImage(predecoded);
    assert(mapped.ok());
    (void)mapped;
  }
  idle_entry_ = vmunix_->FindProcedureByName("idle_loop")->start;
  swtch_entry_ = vmunix_->FindProcedureByName("swtch")->start;
  loader_events_.push_back({LoaderEvent::Kind::kLoadImage, 0, vmunix_});
}

void Kernel::SetMonitor(uint32_t cpu_index, PerfMonitor* monitor) {
  cpus_[cpu_index]->set_monitor(monitor);
}

Result<Process*> Kernel::CreateProcess(
    const std::string& name, std::vector<std::shared_ptr<ExecutableImage>> images,
    const std::string& entry_proc) {
  uint32_t pid = next_pid_++;
  auto process =
      std::make_unique<Process>(pid, name, config_.seed * 104729 + pid * 31);
  uint64_t entry = 0;
  for (const auto& image : images) {
    const PredecodedImage* predecoded = registry_.Register(image);
    if (ground_truth_.FindImage(image.get()) == nullptr) {
      ground_truth_.AddImage(image);
      for (auto& shard : truth_shards_) shard->AddImage(image);
    }
    DCPI_RETURN_IF_ERROR(process->aspace().MapImage(predecoded));
    process->AddImage(image);
    {
      MutexLock lock(&loader_mu_);
      loader_events_.push_back({LoaderEvent::Kind::kLoadImage, pid, image});
    }
    if (const ProcedureSymbol* proc = image->FindProcedureByName(entry_proc)) {
      entry = proc->start;
    }
  }
  if (entry == 0) {
    return NotFound("entry procedure " + entry_proc + " not found in any image");
  }
  DCPI_RETURN_IF_ERROR(process->aspace().MapAnonymous(kStackBase, kStackSize));
  RegFile& regs = process->regs();
  regs.pc = entry;
  regs.WriteInt(kStackReg, static_cast<int64_t>(kStackBase + kStackSize - 64));
  Process* raw = process.get();
  processes_.push_back(std::move(process));
  run_queues_[(pid - 1) % run_queues_.size()].push_back(raw);
  return raw;
}

void Kernel::RunKernelProc(uint32_t cpu_index, uint64_t entry_pc) {
  Cpu& cpu = *cpus_[cpu_index];
  cpu.OnContextSwitch();
  Process& kernel_proc = *kernel_procs_[cpu_index];
  kernel_proc.regs().pc = entry_pc;
  // Kernel routines end with `yield`; the cycle cap is a safety net.
  RunResult result = cpu.Run(kernel_proc, 100'000);
  (void)result;
}

void Kernel::EmitExitEvents(const Process& process) {
  // The modified loader reports the teardown of the exiting process's
  // image map (one unload per mapping) before the exit itself, mirroring
  // the load events emitted at creation.
  MutexLock lock(&loader_mu_);
  for (const auto& image : process.images()) {
    loader_events_.push_back({LoaderEvent::Kind::kUnloadImage, process.pid(), image});
  }
  loader_events_.push_back({LoaderEvent::Kind::kProcessExit, process.pid(), nullptr});
}

Process* Kernel::NextReady(uint32_t cpu_index) {
  std::deque<Process*>& queue = run_queues_[cpu_index];
  if (queue.empty()) return nullptr;
  Process* process = queue.front();
  queue.pop_front();
  return process;
}

bool Kernel::RunOneStep(uint32_t cpu_index) {
  Process* process = NextReady(cpu_index);
  if (process == nullptr) return false;
  Cpu* cpu = cpus_[cpu_index].get();

  // Context-switch path runs in the kernel, then the process gets its
  // quantum.
  RunKernelProc(cpu_index, swtch_entry_);
  cpu->OnContextSwitch();
  process->set_state(ProcessState::kRunning);
  RunResult result = cpu->Run(*process, config_.quantum_cycles);
  process->AddCpuCycles(result.cycles_used);
  process->AddInstructions(result.instructions);
  switch (result.reason) {
    case ExitReason::kBadPc:
    case ExitReason::kBadMemory:
      had_error_.store(true, std::memory_order_relaxed);
      [[fallthrough]];
    case ExitReason::kHalted:
      process->set_state(ProcessState::kDone);
      EmitExitEvents(*process);
      exited_[cpu_index].push_back(process);
      break;
    case ExitReason::kQuantumExpired:
    case ExitReason::kYielded:
    case ExitReason::kInstructionLimit:
      process->set_state(ProcessState::kReady);
      run_queues_[cpu_index].push_back(process);
      break;
  }
  return true;
}

bool Kernel::RunCpuShard(uint32_t cpu_index, uint64_t max_cycles) {
  Cpu& cpu = *cpus_[cpu_index];
  while (cpu.now() < max_cycles) {
    if (!RunOneStep(cpu_index)) return true;
  }
  return run_queues_[cpu_index].empty();
}

bool Kernel::Run(uint64_t max_cycles) {
  while (true) {
    // Pick the least-advanced CPU still under budget with runnable work
    // (approximates concurrent execution with sequential simulation).
    Cpu* cpu = nullptr;
    for (uint32_t i = 0; i < cpus_.size(); ++i) {
      Cpu* candidate = cpus_[i].get();
      if (candidate->now() >= max_cycles) continue;
      if (run_queues_[i].empty()) continue;
      if (cpu == nullptr || candidate->now() < cpu->now()) cpu = candidate;
    }
    if (cpu == nullptr) break;
    RunOneStep(cpu->cpu_id());
  }
  return std::all_of(run_queues_.begin(), run_queues_.end(),
                     [](const std::deque<Process*>& queue) { return queue.empty(); });
}

void Kernel::ReleaseExited(uint32_t cpu_index) {
  for (Process* process : exited_[cpu_index]) process->aspace().Release();
  exited_[cpu_index].clear();
}

std::vector<LoaderEvent> Kernel::DrainLoaderEvents() {
  MutexLock lock(&loader_mu_);
  std::vector<LoaderEvent> events;
  events.swap(loader_events_);
  return events;
}

GroundTruth& Kernel::ground_truth() {
  for (auto& shard : truth_shards_) shard->DrainInto(&ground_truth_);
  return ground_truth_;
}

uint64_t Kernel::ElapsedCycles() const {
  uint64_t latest = 0;
  for (const auto& cpu : cpus_) latest = std::max(latest, cpu->now());
  return latest;
}

}  // namespace dcpi
