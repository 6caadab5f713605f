#include "src/sim/system.h"

#include <algorithm>
#include <thread>

#include "src/support/rng.h"

namespace dcpi {

const char* ProfilingModeName(ProfilingMode mode) {
  switch (mode) {
    case ProfilingMode::kBase:
      return "base";
    case ProfilingMode::kCycles:
      return "cycles";
    case ProfilingMode::kDefault:
      return "default";
    case ProfilingMode::kMux:
      return "mux";
  }
  return "unknown";
}

namespace {

PerfCountersConfig CountersFor(ProfilingMode mode) {
  switch (mode) {
    case ProfilingMode::kCycles:
      return PerfCountersConfig::Cycles();
    case ProfilingMode::kDefault:
      return PerfCountersConfig::Default();
    case ProfilingMode::kMux:
      return PerfCountersConfig::Mux();
    case ProfilingMode::kBase:
      break;
  }
  return PerfCountersConfig();
}

}  // namespace

System::System(const SystemConfig& config) : config_(config) {
  kernel_ = std::make_unique<Kernel>(config.kernel);
  if (config.mode == ProfilingMode::kBase) return;

  DriverConfig driver_config = config.driver;
  if (config.free_profiling) {
    driver_config.intr_setup_cycles = 0;
    driver_config.hit_body_cycles = 0;
    driver_config.miss_body_cycles = 0;
    driver_config.wide_body_cycles = 0;
    driver_config.ipi_flush_cycles = 0;
  }
  driver_ = std::make_unique<DcpiDriver>(config.kernel.num_cpus, driver_config);
  if (!config.db_root.empty()) {
    database_ = std::make_unique<ProfileDatabase>(config.db_root);
  }

  PerfCountersConfig counters_config = CountersFor(config.mode);
  counters_config.double_sampling = config.double_sampling;
  counters_config.mem_fraction = config.mem_fraction;
  if (config.period_scale != 1.0) {
    counters_config = counters_config.WithPeriodScale(config.period_scale);
  }

  std::vector<double> mean_periods(kNumEventTypes, 0.0);
  for (uint32_t cpu = 0; cpu < config.kernel.num_cpus; ++cpu) {
    // Each CPU seeds its period randomizer independently (decorrelated
    // interrupts across CPUs, as on real hardware). CPU 0 keeps the plain
    // seed so single-CPU runs are bit-identical to the historical path.
    counters_config.rng_seed = config.rng_seed + cpu * 0x9e3779b1u;
    counters_.push_back(
        std::make_unique<PerfCounters>(cpu, counters_config, driver_.get()));
    kernel_->SetMonitor(cpu, counters_.back().get());
  }
  if (!counters_.empty()) {
    for (int e = 0; e < kNumEventTypes; ++e) {
      mean_periods[e] = counters_[0]->MeanPeriod(static_cast<EventType>(e));
    }
  }
  daemon_ = std::make_unique<Daemon>(driver_.get(), database_.get(), mean_periods);
  EpochPolicy policy;
  policy.flush_interval_cycles = config.daemon_flush_interval;
  policy.roll_on_map_change = config.roll_on_map_change;
  daemon_->set_epoch_policy(policy);
}

void System::RunSequential(uint64_t max_cycles) {
  // Elapsed-relative so repeated Run segments (continuous mode) keep the
  // historical drain cadence instead of replaying already-passed times.
  uint64_t next_drain = kernel_->ElapsedCycles() + config_.daemon_drain_interval;
  while (true) {
    uint64_t chunk_end = std::min(max_cycles, next_drain);
    bool all_done = kernel_->Run(chunk_end);
    for (uint32_t cpu = 0; cpu < kernel_->num_cpus(); ++cpu) kernel_->ReleaseExited(cpu);
    // Drain the chunk's samples before processing its loader events:
    // loads only happen before Run (at process creation), so mid-run
    // events are exits, and counting the chunk's samples first lets an
    // exit schedule the epoch roll it should.
    if (driver_ != nullptr) driver_->FlushAll();
    ConsumeLoaderEvents();
    if (daemon_ != nullptr) {
      Status ticked = daemon_->TickAtQuiescePoint(kernel_->ElapsedCycles());
      (void)ticked;  // roll/flush failures surface at the final flush
    }
    if (all_done || kernel_->ElapsedCycles() >= max_cycles) break;
    next_drain += config_.daemon_drain_interval;
  }
}

void System::CpuWorker(uint32_t cpu, uint64_t max_cycles) {
  SplitMix64 jitter(static_cast<uint64_t>(config_.host_jitter_seed) * 0x9e3779b9ull +
                    cpu * 127ull + 1);
  const bool use_jitter = config_.host_jitter_seed != 0;
  uint64_t next_drain = kernel_->cpu(cpu).now() + config_.daemon_drain_interval;
  while (true) {
    uint64_t chunk_end = std::min(max_cycles, next_drain);
    bool done = kernel_->RunCpuShard(cpu, chunk_end);
    // Only this thread runs this CPU's shard, and a process never leaves
    // its shard, so the release needs no lock.
    kernel_->ReleaseExited(cpu);
    // The periodic flush is driven by this CPU's own simulated clock, not
    // by the drain thread's host clock, so what the daemon sees — and the
    // hash table's hit/miss (and therefore timing) behaviour — does not
    // depend on host scheduling.
    if (driver_ != nullptr) driver_->FlushCpu(cpu);
    // Publish this CPU's clock (atomic max across CPUs) so the drain
    // thread's timed flushes fire against simulated, not host, time.
    if (daemon_ != nullptr) daemon_->PublishSimTime(kernel_->cpu(cpu).now());
    if (use_jitter && (jitter.Next() & 1) != 0) std::this_thread::yield();
    if (done || kernel_->cpu(cpu).now() >= max_cycles) break;
    next_drain += config_.daemon_drain_interval;
  }
}

void System::RunThreaded(uint64_t max_cycles) {
  if (daemon_ != nullptr) daemon_->StartDrainThread();
  std::vector<std::thread> workers;
  workers.reserve(kernel_->num_cpus());
  for (uint32_t cpu = 0; cpu < kernel_->num_cpus(); ++cpu) {
    workers.emplace_back([this, cpu, max_cycles] { CpuWorker(cpu, max_cycles); });
  }
  for (std::thread& worker : workers) worker.join();
  if (daemon_ != nullptr) daemon_->StopDrainThread();
}

SystemResult System::BuildResult() {
  SystemResult result;
  result.elapsed_cycles = kernel_->ElapsedCycles();
  result.had_error = kernel_->HadProcessError();
  for (uint32_t cpu = 0; cpu < kernel_->num_cpus(); ++cpu) {
    result.instructions += kernel_->cpu(cpu).stats().instructions;
  }
  if (driver_ != nullptr) result.driver_total = driver_->TotalStats();
  if (daemon_ != nullptr) result.daemon = daemon_->stats();
  for (const auto& counters : counters_) {
    for (int e = 0; e < kNumEventTypes; ++e) {
      result.samples[e] += counters->stats().samples[e];
    }
  }
  // The daemon competes for CPU with the workload; spread its modelled
  // cycles across the machine for the slowdown accounting.
  result.busy_cycles_with_daemon =
      result.elapsed_cycles + result.daemon.daemon_cycles / kernel_->num_cpus();
  return result;
}

void System::ConsumeLoaderEvents() {
  std::vector<LoaderEvent> events = kernel_->DrainLoaderEvents();
  if (daemon_ != nullptr) daemon_->ProcessLoaderEvents(std::move(events));
}

SystemResult System::Run(uint64_t max_cycles) {
  // Load maps first (all images were mapped at process-creation time), so
  // the first drained sample of the segment — including those the
  // threaded path's drain thread takes concurrently — can always be
  // attributed.
  ConsumeLoaderEvents();
  const bool threaded = config_.threaded_collection && config_.kernel.num_cpus > 1;
  if (threaded) {
    RunThreaded(max_cycles);
  } else {
    RunSequential(max_cycles);
  }
  ConsumeLoaderEvents();
  Status flushed = Status::Ok();
  if (daemon_ != nullptr) {
    // End of segment = quiesce point: execute any roll the segment's map
    // changes scheduled, and any timed flush that came due.
    Status ticked = daemon_->TickAtQuiescePoint(kernel_->ElapsedCycles());
    flushed = daemon_->FlushToDatabase();
    if (flushed.ok()) flushed = ticked;
  }
  SystemResult result = BuildResult();
  result.had_error = result.had_error || !flushed.ok();
  return result;
}

Status System::RollEpoch() {
  if (daemon_ == nullptr) return Status::Ok();
  ConsumeLoaderEvents();
  return daemon_->RollEpoch(kernel_->ElapsedCycles());
}

Status System::SealCurrentEpoch() {
  if (daemon_ == nullptr) return Status::Ok();
  return daemon_->SealCurrentEpoch(kernel_->ElapsedCycles());
}

}  // namespace dcpi
