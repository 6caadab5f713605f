#include "src/driver/driver.h"

#include <thread>

namespace dcpi {

DcpiDriver::DcpiDriver(uint32_t num_cpus, const DriverConfig& config) : config_(config) {
  per_cpu_ = std::vector<PerCpu>(num_cpus);
  for (PerCpu& cpu : per_cpu_) {
    cpu.table = std::make_unique<SampleHashTable>(config.hash);
    for (OverflowBuffer& buffer : cpu.buffers) {
      buffer.records.resize(config.overflow_entries);
    }
    // Buffer 0 starts owned by the producer; buffer 1 is the free spare.
    cpu.buffers[0].state.store(kProducer, std::memory_order_relaxed);
    cpu.buffers[1].state.store(kFree, std::memory_order_relaxed);
  }
}

void DcpiDriver::PublishActive(uint32_t cpu_id, PerCpu* cpu) {
  OverflowBuffer& full = cpu->buffers[cpu->active_buffer];
  ++cpu->stats.overflow_buffer_flushes;
  // The records and count are visible to any acquire-loader of kPublished.
  full.state.store(kPublished, std::memory_order_release);

  if (drain_mode_ == DrainMode::kInline) {
    // No drain thread: consume the just-published buffer synchronously,
    // which reproduces the original synchronous-callback behaviour.
    DrainCpuPublished(cpu_id);
  } else {
    // Wake the parked drain thread. Ringing before the backpressure wait
    // below is what lets that wait end.
    RingDrainDoorbell();
  }
  OverflowBuffer& spare = cpu->buffers[cpu->active_buffer ^ 1];
  bool waited = false;
  for (int spins = 0; spare.state.load(std::memory_order_acquire) != kFree; ++spins) {
    if (drain_mode_ == DrainMode::kInline) {
      DrainCpuPublished(cpu_id);
    } else {
      // The daemon has fallen behind. The paper would drop records; we
      // apply host-level backpressure instead so no sample is lost and the
      // simulated results stay interleaving-independent. The wait costs
      // host time only, never simulated cycles.
      waited = true;
      if (spins > 64) std::this_thread::yield();
    }
  }
  if (waited) ++cpu->stats.publish_waits;
  spare.state.store(kProducer, std::memory_order_relaxed);
  cpu->active_buffer ^= 1;
}

void DcpiDriver::AppendOverflow(uint32_t cpu_id, PerCpu* cpu, const OverflowRecord& record) {
  OverflowBuffer& active = cpu->buffers[cpu->active_buffer];
  active.records[active.count++] = record;
  if (active.count >= config_.overflow_entries) PublishActive(cpu_id, cpu);
}

void DcpiDriver::ServiceFlush(uint32_t cpu_id, PerCpu* cpu) {
  cpu->table->Flush([&](const SampleRecord& record) {
    AppendOverflow(cpu_id, cpu, OverflowRecord::Narrow(record));
  });
  OverflowBuffer& active = cpu->buffers[cpu->active_buffer];
  if (active.count > 0) PublishActive(cpu_id, cpu);
}

uint64_t DcpiDriver::DeliverSample(uint32_t cpu_id, uint32_t pid, uint64_t pc,
                                   EventType event) {
  PerCpu& cpu = per_cpu_[cpu_id];
  uint64_t cost = 0;
  if (cpu.flush_requested.load(std::memory_order_relaxed)) {
    // The IPI-modeled flush: the daemon flagged this CPU; the handler does
    // the drain itself, so the hash table and buffers still have a single
    // writer.
    cpu.flush_requested.store(false, std::memory_order_relaxed);
    ServiceFlush(cpu_id, &cpu);
    ++cpu.stats.flush_requests_serviced;
    cost += config_.ipi_flush_cycles;
    cpu.stats.ipi_flush_cycles += config_.ipi_flush_cycles;
  }
  SampleKey key{pid, pc, event};
  if (config_.record_trace && cpu.trace.size() < config_.max_trace_samples) {
    cpu.trace.push_back(key);
  }
  SampleHashTable::RecordResult result = cpu.table->Record(key);
  cost += config_.intr_setup_cycles;
  if (result.hit && !result.evicted) {
    ++cpu.stats.hash_hits;
    cost += config_.hit_body_cycles;
    cpu.stats.hit_path_cycles += config_.intr_setup_cycles + config_.hit_body_cycles;
  } else {
    ++cpu.stats.hash_misses;
    cost += config_.miss_body_cycles;
    cpu.stats.miss_path_cycles += config_.intr_setup_cycles + config_.miss_body_cycles;
  }
  if (result.evicted) {
    AppendOverflow(cpu_id, &cpu, OverflowRecord::Narrow(result.victim));
  }
  ++cpu.stats.interrupts;
  cpu.stats.handler_cycles += cost;
  return cost;
}

uint64_t DcpiDriver::DeliverWideSample(uint32_t cpu_id,
                                       const WideSampleRecord& record) {
  PerCpu& cpu = per_cpu_[cpu_id];
  uint64_t cost = 0;
  if (cpu.flush_requested.load(std::memory_order_relaxed)) {
    cpu.flush_requested.store(false, std::memory_order_relaxed);
    ServiceFlush(cpu_id, &cpu);
    ++cpu.stats.flush_requests_serviced;
    cost += config_.ipi_flush_cycles;
    cpu.stats.ipi_flush_cycles += config_.ipi_flush_cycles;
  }
  // The bypass path: no hash probe, the record goes straight to the
  // overflow stream (it cannot live in the packed 16-byte line).
  AppendOverflow(cpu_id, &cpu, OverflowRecord::Wide(record));
  cost += config_.intr_setup_cycles + config_.wide_body_cycles;
  cpu.stats.wide_path_cycles +=
      config_.intr_setup_cycles + config_.wide_body_cycles;
  ++cpu.stats.wide_records;
  ++cpu.stats.interrupts;
  cpu.stats.handler_cycles += cost;
  return cost;
}

void DcpiDriver::RequestFlush() {
  for (PerCpu& cpu : per_cpu_) {
    cpu.flush_requested.store(true, std::memory_order_relaxed);
  }
}

void DcpiDriver::FlushCpu(uint32_t cpu_id) {
  PerCpu& cpu = per_cpu_[cpu_id];
  cpu.flush_requested.store(false, std::memory_order_relaxed);
  ServiceFlush(cpu_id, &cpu);
}

size_t DcpiDriver::DrainCpuPublished(uint32_t cpu_id) {
  PerCpu& cpu = per_cpu_[cpu_id];
  size_t consumed = 0;
  for (OverflowBuffer& buffer : cpu.buffers) {
    uint8_t expected = kPublished;
    if (!buffer.state.compare_exchange_strong(expected, kDraining,
                                              std::memory_order_acquire)) {
      continue;
    }
    // The daemon's copy-out: snapshot the records, hand the buffer back to
    // the producer, then process the copy.
    std::vector<OverflowRecord> drained(buffer.records.begin(),
                                        buffer.records.begin() + buffer.count);
    buffer.count = 0;
    buffer.state.store(kFree, std::memory_order_release);
    if (overflow_handler_) overflow_handler_(cpu_id, drained);
    ++consumed;
  }
  return consumed;
}

void DcpiDriver::RingDrainDoorbell() {
  doorbell_.fetch_add(1, std::memory_order_release);
  doorbell_.notify_all();  // no syscall when nobody is waiting
}

size_t DcpiDriver::DrainPublished() {
  size_t consumed = 0;
  for (uint32_t cpu_id = 0; cpu_id < per_cpu_.size(); ++cpu_id) {
    consumed += DrainCpuPublished(cpu_id);
  }
  return consumed;
}

void DcpiDriver::FlushAll() {
  for (uint32_t cpu_id = 0; cpu_id < per_cpu_.size(); ++cpu_id) {
    DrainCpuPublished(cpu_id);
    PerCpu& cpu = per_cpu_[cpu_id];
    std::vector<OverflowRecord> drained;
    cpu.table->Flush([&](const SampleRecord& record) {
      drained.push_back(OverflowRecord::Narrow(record));
    });
    OverflowBuffer& active = cpu.buffers[cpu.active_buffer];
    for (size_t i = 0; i < active.count; ++i) drained.push_back(active.records[i]);
    active.count = 0;
    if (!drained.empty() && overflow_handler_) overflow_handler_(cpu_id, drained);
  }
}

DriverCpuStats DcpiDriver::TotalStats() const {
  DriverCpuStats total;
  for (const PerCpu& cpu : per_cpu_) {
    total.interrupts += cpu.stats.interrupts;
    total.hash_hits += cpu.stats.hash_hits;
    total.hash_misses += cpu.stats.hash_misses;
    total.handler_cycles += cpu.stats.handler_cycles;
    total.hit_path_cycles += cpu.stats.hit_path_cycles;
    total.miss_path_cycles += cpu.stats.miss_path_cycles;
    total.wide_path_cycles += cpu.stats.wide_path_cycles;
    total.ipi_flush_cycles += cpu.stats.ipi_flush_cycles;
    total.wide_records += cpu.stats.wide_records;
    total.overflow_buffer_flushes += cpu.stats.overflow_buffer_flushes;
    total.flush_requests_serviced += cpu.stats.flush_requests_serviced;
    total.publish_waits += cpu.stats.publish_waits;
  }
  return total;
}

HashTableStats DcpiDriver::TotalTableStats() const {
  HashTableStats total;
  for (const PerCpu& cpu : per_cpu_) total.Accumulate(cpu.table->stats());
  return total;
}

uint64_t DcpiDriver::total_samples() const {
  DriverCpuStats total = TotalStats();
  return total.interrupts;
}

uint64_t DcpiDriver::KernelMemoryBytesPerCpu() const {
  uint64_t buffers = 2ull * config_.overflow_entries * 16;
  return config_.hash.MemoryBytes() + buffers;
}

double ModelledCostPerSample(const DriverConfig& config, const HashTableStats& stats) {
  double miss_rate = stats.MissRate();
  return static_cast<double>(config.intr_setup_cycles) +
         (1.0 - miss_rate) * static_cast<double>(config.hit_body_cycles) +
         miss_rate * static_cast<double>(config.miss_body_cycles);
}

std::vector<SampleKey> DcpiDriver::Trace() const {
  std::vector<SampleKey> all;
  for (const PerCpu& cpu : per_cpu_) {
    all.insert(all.end(), cpu.trace.begin(), cpu.trace.end());
  }
  return all;
}

}  // namespace dcpi
