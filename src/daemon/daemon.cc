#include "src/daemon/daemon.h"

#include <algorithm>
#include <utility>

namespace dcpi {

namespace {
constexpr char kUnknownImage[] = "unknown";
}  // namespace

Daemon::Daemon(DcpiDriver* driver, ProfileDatabase* database,
               std::vector<double> mean_periods)
    : driver_(driver), database_(database), mean_periods_(std::move(mean_periods)) {
  mean_periods_.resize(kNumEventTypes, 0.0);
  if (driver_ != nullptr) {
    driver_->set_overflow_handler(
        [this](uint32_t cpu_id, const std::vector<OverflowRecord>& records) {
          ProcessBuffer(cpu_id, records);
        });
  }
}

Daemon::~Daemon() {
  if (drain_thread_running()) StopDrainThread();
}

void Daemon::set_epoch_policy(const EpochPolicy& policy) {
  policy_ = policy;
  next_flush_due_.store(policy.flush_interval_cycles, std::memory_order_relaxed);
}

void Daemon::ProcessLoaderEvents(std::vector<LoaderEvent> events) {
  bool map_changed = false;
  {
    WriterMutexLock lock(&maps_mu_);
    for (LoaderEvent& event : events) {
      if (event.kind == LoaderEvent::Kind::kLoadImage && event.image != nullptr) {
        std::vector<Mapping>& maps = load_maps_[event.pid];
        maps.push_back(
            {event.image->text_base(), event.image->text_end(), event.image, false});
        std::sort(maps.begin(), maps.end(),
                  [](const Mapping& a, const Mapping& b) { return a.start < b.start; });
        map_changed = true;
      } else if (event.kind == LoaderEvent::Kind::kUnloadImage &&
                 event.image != nullptr) {
        // The mapping stays resolvable until the next epoch roll so that
        // late-drained samples from the exited process still attribute
        // (the paper's daemon reaps per-process state infrequently).
        auto it = load_maps_.find(event.pid);
        if (it != load_maps_.end()) {
          for (Mapping& mapping : it->second) {
            if (mapping.image == event.image) mapping.dead = true;
          }
        }
        map_changed = true;
      }
      // kProcessExit carries no map information of its own; the per-image
      // unload events preceding it already marked the mappings dead.
    }
  }
  // An image-map change after samples arrived delimits an epoch (Section
  // 4.2: epochs are periods of stable load maps). The roll itself waits
  // for a quiesce point. Changes before any sample (initial loads) do not
  // schedule a roll — the epoch would be empty.
  if (map_changed && policy_.roll_on_map_change &&
      samples_since_roll_.load(std::memory_order_relaxed) > 0) {
    pending_map_roll_.store(true, std::memory_order_release);
  }
}

const Daemon::Mapping* Daemon::ResolvePc(uint32_t pid, uint64_t pc) const {
  auto it = load_maps_.find(pid);
  if (it == load_maps_.end()) return nullptr;
  const std::vector<Mapping>& maps = it->second;
  auto map_it = std::upper_bound(
      maps.begin(), maps.end(), pc,
      [](uint64_t value, const Mapping& m) { return value < m.start; });
  if (map_it == maps.begin()) return nullptr;
  --map_it;
  return (pc >= map_it->start && pc < map_it->end) ? &*map_it : nullptr;
}

Daemon::ProfileSlot* Daemon::SlotFor(const std::string& image_name, EventType event) {
  auto key = std::make_pair(image_name, static_cast<int>(event));
  MutexLock lock(&profiles_mu_);
  auto it = profiles_.find(key);
  if (it == profiles_.end()) {
    auto slot = std::make_unique<ProfileSlot>();
    {
      // The slot is not yet published, but the profile is guarded state;
      // the uncontended lock keeps the initialization inside the
      // capability contract.
      MutexLock slot_lock(&slot->mu);
      slot->profile = ImageProfile(image_name, event,
                                   mean_periods_[static_cast<int>(event)]);
    }
    it = profiles_.emplace(key, std::move(slot)).first;
  }
  return it->second.get();
}

void Daemon::ProcessBuffer(uint32_t cpu_id, const std::vector<SampleRecord>& records) {
  std::vector<OverflowRecord> wrapped;
  wrapped.reserve(records.size());
  for (const SampleRecord& record : records) {
    wrapped.push_back(OverflowRecord::Narrow(record));
  }
  ProcessBuffer(cpu_id, wrapped);
}

void Daemon::ProcessBuffer(uint32_t cpu_id, const std::vector<OverflowRecord>& records) {
  // Pass 1 (load-map lookups only): resolve every record to its slot and
  // image-relative offset, grouping consecutive work per (image, event).
  // The group list is tiny (one entry per distinct image x event in the
  // buffer), so a linear scan beats any hash here. Wide records join the
  // same groups: their single PC sample rides the staging vector and their
  // memory payload is applied under the same one-per-group lock hold.
  struct Group {
    ProfileSlot* slot;
    const ExecutableImage* image;  // group identity; null = unknown image
    EventType event;
    std::vector<std::pair<uint64_t, uint64_t>> entries;  // (offset, count)
    std::vector<const WideSampleRecord*> wide;  // memory payloads to apply
  };
  std::vector<Group> groups;
  uint64_t attributed = 0;
  uint64_t unknown = 0;
  uint64_t narrow_count = 0;
  uint64_t wide_count = 0;
  {
    ReaderMutexLock maps_lock(&maps_mu_);
    for (const OverflowRecord& overflow : records) {
      const bool is_wide = overflow.kind == OverflowRecord::Kind::kWide;
      uint32_t pid;
      uint64_t pc;
      EventType event;
      uint64_t count;
      if (is_wide) {
        pid = overflow.wide.pid;
        pc = overflow.wide.pc;
        event = overflow.wide.event;
        count = 1;  // a wide record is one sample
        ++wide_count;
      } else {
        pid = overflow.narrow.key.pid;
        pc = overflow.narrow.key.pc;
        event = overflow.narrow.key.event;
        count = overflow.narrow.count;
        ++narrow_count;
        if (count == 0) continue;  // carries no samples
      }
      const Mapping* mapping = ResolvePc(pid, pc);
      const ExecutableImage* image = mapping == nullptr ? nullptr : mapping->image.get();
      uint64_t offset = mapping == nullptr ? 0 : pc - mapping->start;
      if (mapping == nullptr) {
        unknown += count;
      } else {
        attributed += count;
      }
      Group* group = nullptr;
      for (Group& candidate : groups) {
        if (candidate.image == image && candidate.event == event) {
          group = &candidate;
          break;
        }
      }
      if (group == nullptr) {
        groups.push_back({SlotFor(image == nullptr ? kUnknownImage : image->name(),
                                  event),
                          image,
                          event,
                          {},
                          {}});
        group = &groups.back();
      }
      group->entries.emplace_back(offset, count);
      if (is_wide && overflow.wide.has_data) {
        group->wide.push_back(&overflow.wide);
      }
    }
  }
  // Pass 2: one merge-lock acquisition per group; records land in the
  // slot's dense staging vector (offset/4-indexed, like ExtractDense's
  // output) with a plain array add instead of a profile-map insertion.
  // Wide memory payloads go straight to the data-line map here — staging
  // them densely is impossible (data VAs are sparse), but they still pay
  // only the group's single lock acquisition.
  for (Group& group : groups) {
    MutexLock lock(&group.slot->mu);
    for (const auto& [offset, count] : group.entries) {
      size_t index = offset / 4;
      if (offset % 4 != 0) {
        // Off-grid offsets cannot name an instruction slot; take the map
        // path directly (they are as rare as bogus PCs).
        group.slot->profile.AddSamples(offset, count);
        continue;
      }
      if (index >= group.slot->staged.size()) {
        group.slot->staged.resize(index + 1, 0);
      }
      group.slot->staged[index] += count;
      group.slot->staged_samples += count;
    }
    for (const WideSampleRecord* wide : group.wide) {
      group.slot->profile.mutable_mem()->AddAccess(wide->data_va, wide->level,
                                                   wide->latency, wide->tlb_miss,
                                                   cpu_id);
    }
  }
  records_processed_.fetch_add(records.size(), std::memory_order_relaxed);
  daemon_cycles_.fetch_add(kCyclesPerBuffer + narrow_count * kCyclesPerRecord +
                               wide_count * kCyclesPerWideRecord +
                               groups.size() * kCyclesPerGroup,
                           std::memory_order_relaxed);
  ingest_groups_.fetch_add(groups.size(), std::memory_order_relaxed);
  wide_records_.fetch_add(wide_count, std::memory_order_relaxed);
  samples_attributed_.fetch_add(attributed, std::memory_order_relaxed);
  samples_unknown_.fetch_add(unknown, std::memory_order_relaxed);
  samples_since_roll_.fetch_add(attributed + unknown, std::memory_order_relaxed);
}

void Daemon::DrainStagingLocked(ProfileSlot* slot) const {
  if (slot->staged_samples == 0) return;
  for (size_t index = 0; index < slot->staged.size(); ++index) {
    if (slot->staged[index] != 0) {
      slot->profile.AddSamples(index * 4, slot->staged[index]);
      slot->staged[index] = 0;
    }
  }
  slot->staged_samples = 0;
  staging_drains_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::StartDrainThread() {
  if (driver_ == nullptr || drain_thread_running()) return;
  drain_stop_.store(false, std::memory_order_relaxed);
  driver_->SetDrainMode(DrainMode::kConcurrent);
  drain_thread_ = std::thread([this] {
    while (true) {
      // Read the doorbell before the sweep: a publish, clock advance or
      // stop request that lands after this read moves the doorbell on, so
      // the wait below returns at once instead of sleeping through it.
      uint32_t seen = driver_->DrainDoorbell();
      size_t consumed = driver_->DrainPublished();
      // Timed flushes ride the drain thread: the clock is published by
      // the CPU workers, so flush times are simulated-deterministic even
      // though the flush itself runs on this host thread.
      MaybeTimedFlush();
      if (consumed == 0) {
        // Producers have quiesced by the time stop is set, so an empty
        // sweep after the flag means nothing more can arrive: the
        // shutdown wait is bounded.
        if (drain_stop_.load(std::memory_order_acquire)) break;
        driver_->WaitDrainDoorbell(seen);
      }
    }
  });
}

void Daemon::StopDrainThread() {
  if (!drain_thread_running()) return;
  drain_stop_.store(true, std::memory_order_release);
  driver_->RingDrainDoorbell();
  drain_thread_.join();
  driver_->DrainPublished();  // anything published after the final sweep
  driver_->SetDrainMode(DrainMode::kInline);
}

Status Daemon::FlushProfilesLocked() {
  if (database_ == nullptr) return Status::Ok();
  // Collect the slots under the structure lock, then snapshot each profile
  // under its own merge lock: concurrent ProcessBuffer merges never see a
  // torn write, and the (slow) file IO happens outside every lock.
  std::vector<ProfileSlot*> slots;
  {
    MutexLock lock(&profiles_mu_);
    slots.reserve(profiles_.size());
    for (const auto& [key, slot] : profiles_) slots.push_back(slot.get());
  }
  size_t failures = 0;
  std::string first_error;
  for (ProfileSlot* slot : slots) {
    ImageProfile snapshot;
    {
      MutexLock lock(&slot->mu);
      DrainStagingLocked(slot);
      if (slot->profile.distinct_offsets() == 0 && slot->profile.mem().empty()) {
        continue;
      }
      snapshot = slot->profile;
    }
    Status written = database_->ReplaceProfile(snapshot);
    if (!written.ok()) {
      db_write_retries_.fetch_add(1, std::memory_order_relaxed);
      written = database_->ReplaceProfile(snapshot);
    }
    if (!written.ok()) {
      db_write_failures_.fetch_add(1, std::memory_order_relaxed);
      ++failures;
      if (first_error.empty()) first_error = written.message();
      continue;
    }
    db_merges_.fetch_add(1, std::memory_order_relaxed);
  }
  if (failures > 0) {
    return IoError(std::to_string(failures) +
                   " profile write(s) failed after retry; first: " + first_error);
  }
  return Status::Ok();
}

Status Daemon::FlushToDatabase() {
  if (driver_ != nullptr) driver_->FlushAll();
  MutexLock lock(&flush_mu_);
  return FlushProfilesLocked();
}

void Daemon::PublishSimTime(uint64_t now) {
  uint64_t current = sim_now_.load(std::memory_order_relaxed);
  while (now > current &&
         !sim_now_.compare_exchange_weak(current, now, std::memory_order_release,
                                         std::memory_order_relaxed)) {
  }
  // A timed flush may have come due: wake a parked drain thread.
  if (driver_ != nullptr) driver_->RingDrainDoorbell();
}

bool Daemon::MaybeTimedFlush() {
  if (database_ == nullptr || policy_.flush_interval_cycles == 0) return false;
  uint64_t now = sim_now_.load(std::memory_order_acquire);
  if (now < next_flush_due_.load(std::memory_order_relaxed)) return false;
  MutexLock lock(&flush_mu_);
  uint64_t due = next_flush_due_.load(std::memory_order_relaxed);
  if (now < due) return false;  // another flush beat us to it
  // A failed timed flush is counted in db_write_failures and retried at
  // the next interval (or the final shutdown flush, which reports it).
  Status flushed = FlushProfilesLocked();
  (void)flushed;
  while (due <= now) due += policy_.flush_interval_cycles;
  next_flush_due_.store(due, std::memory_order_relaxed);
  timed_flushes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status Daemon::TickAtQuiescePoint(uint64_t now) {
  PublishSimTime(now);
  if (policy_.roll_on_map_change &&
      pending_map_roll_.load(std::memory_order_acquire)) {
    return RollEpoch(now);
  }
  MaybeTimedFlush();
  return Status::Ok();
}

Status Daemon::RollEpoch(uint64_t at_cycles) {
  // Quiesce point: producers are idle, so a full driver drain leaves no
  // in-flight sample that could land astride the seal.
  if (driver_ != nullptr) driver_->FlushAll();
  // An epoch with no samples would seal empty (and the next one would
  // inherit the same load maps), so a roll before any sample is a no-op.
  if (samples_since_roll_.load(std::memory_order_relaxed) == 0) {
    pending_map_roll_.store(false, std::memory_order_release);
    return Status::Ok();
  }
  Status result = Status::Ok();
  bool sealed = false;
  {
    MutexLock lock(&flush_mu_);
    result = FlushProfilesLocked();
    if (database_ != nullptr && database_->has_open_epoch()) {
      Status seal = database_->SealCurrentEpoch(at_cycles);
      if (result.ok()) result = seal;
      sealed = seal.ok();
      Result<uint32_t> next = database_->NewEpoch();
      if (result.ok() && !next.ok()) result = next.status();
    }
    // Restart the flush countdown: the roll just flushed everything.
    if (policy_.flush_interval_cycles != 0) {
      uint64_t now = sim_now_.load(std::memory_order_relaxed);
      if (at_cycles > now) now = at_cycles;
      next_flush_due_.store(now + policy_.flush_interval_cycles,
                            std::memory_order_relaxed);
    }
  }
  // The sealed epoch's samples now live on disk; the in-memory slots
  // restart empty for the new epoch (identity and periods kept).
  {
    MutexLock lock(&profiles_mu_);
    for (const auto& [key, slot_ptr] : profiles_) {
      ProfileSlot* slot = slot_ptr.get();
      MutexLock slot_lock(&slot->mu);
      // The flush above drained all staging; zero it again defensively so
      // a staged sample can never survive into the next epoch.
      std::fill(slot->staged.begin(), slot->staged.end(), 0);
      slot->staged_samples = 0;
      slot->profile.ClearCounts();
    }
  }
  PruneDeadMaps();
  samples_since_roll_.store(0, std::memory_order_relaxed);
  pending_map_roll_.store(false, std::memory_order_release);
  if (sealed) epoch_rolls_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Status Daemon::SealCurrentEpoch(uint64_t at_cycles) {
  if (database_ == nullptr) return Status::Ok();
  // A live epoch with no samples was never written, so it has no
  // directory (one appears with an epoch's first write): nothing to seal.
  if (samples_since_roll_.load(std::memory_order_relaxed) == 0) {
    return Status::Ok();
  }
  MutexLock lock(&flush_mu_);
  if (!database_->has_open_epoch()) return Status::Ok();  // nothing collected
  return database_->SealCurrentEpoch(at_cycles);
}

void Daemon::PruneDeadMaps() {
  WriterMutexLock lock(&maps_mu_);
  for (auto it = load_maps_.begin(); it != load_maps_.end();) {
    std::vector<Mapping>& maps = it->second;
    maps.erase(std::remove_if(maps.begin(), maps.end(),
                              [](const Mapping& m) { return m.dead; }),
               maps.end());
    it = maps.empty() ? load_maps_.erase(it) : std::next(it);
  }
}

const ImageProfile* Daemon::FindProfile(const std::string& image_name,
                                        EventType event) const {
  MutexLock lock(&profiles_mu_);
  auto it = profiles_.find(std::make_pair(image_name, static_cast<int>(event)));
  if (it == profiles_.end()) return nullptr;
  ProfileSlot* slot = it->second.get();
  MutexLock slot_lock(&slot->mu);
  DrainStagingLocked(slot);
  return &slot->profile;
}

std::vector<const ImageProfile*> Daemon::AllProfiles() const {
  MutexLock lock(&profiles_mu_);
  std::vector<const ImageProfile*> all;
  for (const auto& [key, slot_ptr] : profiles_) {
    ProfileSlot* slot = slot_ptr.get();
    MutexLock slot_lock(&slot->mu);
    DrainStagingLocked(slot);
    all.push_back(&slot->profile);
  }
  return all;
}

uint64_t Daemon::MemoryUsageBytes() const {
  uint64_t total = 1 << 16;  // buffers to copy one overflow buffer, misc state
  {
    ReaderMutexLock lock(&maps_mu_);
    for (const auto& [pid, maps] : load_maps_) total += 64 + maps.size() * 48;
  }
  MutexLock lock(&profiles_mu_);
  for (const auto& [key, slot_ptr] : profiles_) {
    ProfileSlot* slot = slot_ptr.get();
    MutexLock slot_lock(&slot->mu);
    // Size, not capacity: the size is the highest offset ingested plus
    // one, while the capacity depends on the order the drain thread grew
    // the vector in.
    total += slot->profile.memory_bytes() + slot->staged.size() * 8;
  }
  return total;
}

DaemonStats Daemon::stats() const {
  DaemonStats snapshot;
  snapshot.records_processed = records_processed_.load(std::memory_order_relaxed);
  snapshot.samples_attributed = samples_attributed_.load(std::memory_order_relaxed);
  snapshot.samples_unknown = samples_unknown_.load(std::memory_order_relaxed);
  snapshot.daemon_cycles = daemon_cycles_.load(std::memory_order_relaxed);
  snapshot.db_merges = db_merges_.load(std::memory_order_relaxed);
  snapshot.db_write_retries = db_write_retries_.load(std::memory_order_relaxed);
  snapshot.db_write_failures = db_write_failures_.load(std::memory_order_relaxed);
  snapshot.epoch_rolls = epoch_rolls_.load(std::memory_order_relaxed);
  snapshot.timed_flushes = timed_flushes_.load(std::memory_order_relaxed);
  snapshot.ingest_groups = ingest_groups_.load(std::memory_order_relaxed);
  snapshot.wide_records = wide_records_.load(std::memory_order_relaxed);
  snapshot.staging_drains = staging_drains_.load(std::memory_order_relaxed);
  if (database_ != nullptr) {
    snapshot.db_bytes_written = database_->bytes_written();
  }
  return snapshot;
}

}  // namespace dcpi
