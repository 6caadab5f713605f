// The user-mode profiling daemon (Section 4.3).
//
// The daemon consumes loader events to maintain per-process load maps,
// drains the driver's overflow buffers and hash tables, maps each sample's
// (PID, PC) to an (image, offset), aggregates samples into per-(image,
// event) profiles, and periodically merges them into the on-disk profile
// database. Samples that cannot be attributed (dead maps, bogus PCs) are
// aggregated into a synthetic "unknown" image, which the paper reports at
// well under 1% of samples.
//
// Multiprocessor collection: StartDrainThread() spawns a dedicated drain
// thread that concurrently consumes the driver's published overflow
// buffers while one host thread per simulated CPU delivers samples. The
// thread parks on the driver's drain doorbell after a sweep that finds
// nothing, and is woken exactly when there is work: a buffer was
// published, PublishSimTime() advanced the clock (a timed flush may be
// due), or StopDrainThread() asked it to exit. So it costs no host CPU
// while idle. ProcessBuffer is thread-safe: the load maps are guarded by
// a reader/writer lock, aggregate counters are atomics, and each
// (image, event) profile is guarded by its own mutex so merges into
// different profiles do not contend. StopDrainThread() is a bounded-wait
// shutdown: once producers have quiesced, the drain thread performs one
// final empty sweep and exits.
//
// Batched ingest (Section 5.4's "reduce per-sample daemon work"):
// ProcessBuffer groups a whole drained buffer by (image, event) and
// accumulates each group into the slot's dense staging vector, paying the
// profile-map lookup and merge-lock acquisition once per group per buffer
// instead of once per record. Staged counts are merged into the profile
// map at every flush and read point — in particular before any database
// write and at every epoch-roll quiesce point — so no reader ever sees
// withheld samples and no staged sample can leak across a sealed epoch
// boundary.
//
// Continuous operation (the paper's headline property): the daemon runs
// indefinitely and the database grows as a sequence of sealed epochs. An
// EpochPolicy arms two triggers:
//   * timed flushes — PublishSimTime() advances the daemon's view of the
//     simulated clock, and every flush_interval_cycles the cumulative
//     in-memory profiles are flushed (ReplaceProfile: single-writer
//     overwrite, so repeated flushes of one epoch never double-count).
//     The drain thread performs these concurrently with collection.
//   * map-change rolls — image load/unload events mark the epoch's load
//     map as changed; the next quiesce point executes RollEpoch(), which
//     flushes, seals the epoch (.sealed marker), advances to a new epoch,
//     clears the aggregation slots, and retires dead load-map entries.
// Rolls only ever execute at quiesce points (no producers, no drain
// thread mid-buffer), so no sample can land astride the seal.
//
// Daemon CPU cost is modelled per buffer, per record and per (image,
// event) group (the Daemon::kCycles* constants) and reported per-sample
// for the Table 4 accounting.

#ifndef SRC_DAEMON_DAEMON_H_
#define SRC_DAEMON_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/driver/driver.h"
#include "src/kernel/kernel.h"
#include "src/profiledb/database.h"
#include "src/profiledb/profile.h"
#include "src/support/mutex.h"

namespace dcpi {

// When and how the epoch lifecycle advances. The defaults reproduce the
// historical batch behaviour: one epoch, flushed once at shutdown.
struct EpochPolicy {
  // Flush the in-memory profiles to the database every this many simulated
  // cycles (0 disables timed flushes). The paper's daemon wakes every ~5
  // minutes; scale to simulation length.
  uint64_t flush_interval_cycles = 0;
  // Seal + advance the epoch when the image map changes (image loaded or
  // unloaded after samples arrived). Executed at the next quiesce point.
  bool roll_on_map_change = false;
};

struct DaemonStats {
  uint64_t records_processed = 0;   // aggregated hash entries seen
  uint64_t samples_attributed = 0;  // sum of record counts mapped to images
  uint64_t samples_unknown = 0;
  uint64_t daemon_cycles = 0;       // modelled CPU time consumed by the daemon
  uint64_t db_merges = 0;           // profiles successfully written
  uint64_t db_write_retries = 0;    // failed profile writes retried
  uint64_t db_write_failures = 0;   // profiles whose retry also failed
  uint64_t epoch_rolls = 0;         // epochs sealed + advanced past
  uint64_t timed_flushes = 0;       // periodic flushes performed
  uint64_t ingest_groups = 0;       // (image, event) groups formed
  uint64_t staging_drains = 0;      // staging-vector merges into profiles
  uint64_t db_bytes_written = 0;    // serialized bytes flushed to the db
  uint64_t wide_records = 0;        // ProfileMe-style memory records ingested
};

class Daemon {
 public:
  // The daemon installs itself as the driver's overflow handler. `periods`
  // supplies the mean sampling period per event (for profile metadata).
  Daemon(DcpiDriver* driver, ProfileDatabase* database,
         std::vector<double> mean_periods = {});
  ~Daemon();

  // Modelled daemon CPU cost, in cycles.
  // Per narrow record: PID + image lookup and a dense-array add; the
  // profile hash update is amortized into the per-group cost.
  static constexpr uint64_t kCyclesPerRecord = 320;
  // Per (image, event) group per buffer: profile-map lookup, merge-lock
  // round trip, staging bookkeeping.
  static constexpr uint64_t kCyclesPerGroup = 1100;
  // Per wide (memory) record: PID + image lookup plus the data-line map
  // update — heavier than a narrow staged add, and each wide record
  // carries exactly one sample.
  static constexpr uint64_t kCyclesPerWideRecord = 500;
  // Per buffer flush (syscall + copy).
  static constexpr uint64_t kCyclesPerBuffer = 6000;

  // Installs the continuous-operation policy. Call before collection
  // starts (not thread-safe against a running drain thread).
  void set_epoch_policy(const EpochPolicy& policy);
  const EpochPolicy& epoch_policy() const { return policy_; }

  // Ingests load-map updates from the kernel's modified loader.
  void ProcessLoaderEvents(std::vector<LoaderEvent> events);

  // Handles one drained buffer (also used directly by tests). Thread-safe.
  // Narrow records are hash-table aggregates; wide records are individual
  // ProfileMe-style memory samples that also feed the data-line axis, where
  // `cpu_id` sets the line's cpu_mask (the false-sharing signal).
  void ProcessBuffer(uint32_t cpu_id, const std::vector<OverflowRecord>& records);
  // Convenience for narrow-only callers (tests, benches).
  void ProcessBuffer(uint32_t cpu_id, const std::vector<SampleRecord>& records);

  // Concurrent drain of the driver's published overflow buffers. Start
  // switches the driver to DrainMode::kConcurrent; Stop joins the thread,
  // performs a final sweep, and restores inline draining. Stop must be
  // called only after the sample-producing threads have quiesced. While
  // running, the drain thread also performs any due timed flushes, and
  // sleeps on the driver's drain doorbell when it has nothing to do.
  void StartDrainThread();
  void StopDrainThread();
  bool drain_thread_running() const { return drain_thread_.joinable(); }

  // Flushes driver state and writes all in-memory profiles to disk. A
  // failed profile write is retried once; if the retry also fails the
  // flush continues with the remaining profiles and returns an error
  // naming the failure count, so a bad disk never silently drops samples.
  Status FlushToDatabase();

  // ---- Epoch lifecycle ----

  // Advances the daemon's view of the simulated clock (atomic max, so
  // per-CPU workers may publish concurrently) and wakes the drain thread.
  // Timed flushes are due against this clock, keeping them at
  // deterministic simulated times.
  void PublishSimTime(uint64_t now);

  // Performs a due timed flush, if any. Safe to call concurrently with
  // collection (the drain thread calls it every sweep). Returns true if a
  // flush ran.
  bool MaybeTimedFlush();

  // Executes any pending map-change roll, then any due timed flush. Call
  // only at quiesce points (between Run segments, or on the sequential
  // path between kernel chunks) — rolls must not race sample production.
  Status TickAtQuiescePoint(uint64_t now);

  // Seals the current epoch and starts the next one: drains the driver,
  // flushes the cumulative profiles, writes the .sealed marker, advances
  // the database epoch, clears the in-memory aggregation slots, and
  // retires load-map entries of exited processes. Quiesce points only.
  // No-op (Ok) when nothing was ever flushed and no epoch is open.
  Status RollEpoch(uint64_t at_cycles = 0);

  // Seals the current epoch without advancing (clean shutdown, so the
  // final epoch is analyzable like any other).
  Status SealCurrentEpoch(uint64_t at_cycles = 0);

  // True when an image-map change has scheduled a roll for the next
  // quiesce point.
  bool pending_epoch_roll() const {
    return pending_map_roll_.load(std::memory_order_acquire);
  }

  // In-memory profile access (what the analysis tools read before a flush;
  // after a flush, read the database). A roll clears these — the database
  // then holds the sealed history.
  const ImageProfile* FindProfile(const std::string& image_name, EventType event) const;
  std::vector<const ImageProfile*> AllProfiles() const;

  // Total resident memory modelled for the daemon: load maps + profiles.
  uint64_t MemoryUsageBytes() const;

  // Snapshot of the aggregate counters.
  DaemonStats stats() const;

  double UnknownSampleFraction() const {
    uint64_t attributed = samples_attributed_.load(std::memory_order_relaxed);
    uint64_t unknown = samples_unknown_.load(std::memory_order_relaxed);
    uint64_t total = attributed + unknown;
    return total == 0 ? 0.0
                      : static_cast<double>(unknown) / static_cast<double>(total);
  }

 private:
  struct Mapping {
    uint64_t start;
    uint64_t end;
    std::shared_ptr<const ExecutableImage> image;
    // Set when the owning process exits; the mapping keeps resolving
    // late-drained samples until the next epoch roll retires it.
    bool dead = false;
  };

  // One (image, event) aggregation slot; `mu` serializes merges into this
  // profile so distinct profiles never contend (the per-(image,event)
  // merge lock). Ingest accumulates a buffer's samples into `staged` — a
  // dense vector indexed by offset/4 (instruction granularity, the inverse
  // of ImageProfile::ExtractDense) — and the staged counts are merged into
  // `profile` at every flush or read point, so nothing outside this class
  // ever observes staging lag.
  //
  // Slot locks are the innermost daemon locks, and a thread never holds
  // two at once, so every slot shares one rank.
  struct ProfileSlot {
    Mutex mu{LockRank::kDaemonProfileSlot, "daemon.slot"};
    ImageProfile profile GUARDED_BY(mu);
    std::vector<uint64_t> staged GUARDED_BY(mu);  // offset/4 -> samples
    uint64_t staged_samples GUARDED_BY(mu) = 0;   // total staged counts
  };

  const Mapping* ResolvePc(uint32_t pid, uint64_t pc) const
      REQUIRES_SHARED(maps_mu_);
  ProfileSlot* SlotFor(const std::string& image_name, EventType event)
      EXCLUDES(profiles_mu_);
  // Merges `staged` into `profile` and zeroes it. Caller holds slot->mu.
  // Const so the read accessors can drain before exposing a profile.
  void DrainStagingLocked(ProfileSlot* slot) const REQUIRES(slot->mu);
  // Writes every non-empty profile with ReplaceProfile (+1 retry each).
  Status FlushProfilesLocked() REQUIRES(flush_mu_);
  // Erases dead load-map entries (and emptied processes).
  void PruneDeadMaps() EXCLUDES(maps_mu_);

  DcpiDriver* driver_;
  ProfileDatabase* database_;
  EpochPolicy policy_;
  std::vector<double> mean_periods_;  // indexed by EventType

  // Load-map lock: ingest holds it shared across a whole buffer (PC
  // resolution), loader-event processing and map pruning hold it
  // exclusively. Profile-slot creation (profiles_mu_) nests inside it.
  mutable SharedMutex maps_mu_{LockRank::kDaemonLoadMaps, "daemon.maps"};
  std::unordered_map<uint32_t, std::vector<Mapping>> load_maps_
      GUARDED_BY(maps_mu_);  // pid -> sorted maps

  // Guards the profiles_ map *structure* (insertions and iteration); the
  // slots it points at are guarded by their own per-slot locks.
  mutable Mutex profiles_mu_{LockRank::kDaemonProfiles, "daemon.profiles"};
  std::map<std::pair<std::string, int>, std::unique_ptr<ProfileSlot>> profiles_
      GUARDED_BY(profiles_mu_);

  // Serializes database flushes and rolls (a concurrent timed flush and a
  // quiesce-point roll must not interleave their profile writes). Always
  // the outermost daemon lock: profile snapshots (profiles_mu_, slot
  // locks) and database writes (the profiledb mutex) all nest inside it.
  Mutex flush_mu_{LockRank::kDaemonFlush, "daemon.flush"};
  // Lock-free epoch-trigger state. Invariants:
  //  * sim_now_ is a monotone max published by the per-CPU workers (CAS
  //    loop, release); the drain thread reads it with acquire, so a flush
  //    that fires at T observes every sample published before T. Each
  //    publish then rings the driver's drain doorbell, so a parked drain
  //    thread re-checks the clock.
  //  * next_flush_due_ is written only under flush_mu_ (the re-arm after
  //    a flush); the lock-free read in MaybeTimedFlush is a cheap
  //    early-out, re-validated under flush_mu_ before flushing.
  //  * pending_map_roll_ is set with release by loader-event processing
  //    and consumed (read-acquire, then cleared) only at quiesce points.
  std::atomic<uint64_t> sim_now_{0};
  std::atomic<uint64_t> next_flush_due_{0};
  std::atomic<bool> pending_map_roll_{false};
  std::atomic<uint64_t> samples_since_roll_{0};

  std::atomic<uint64_t> records_processed_{0};
  std::atomic<uint64_t> samples_attributed_{0};
  std::atomic<uint64_t> samples_unknown_{0};
  std::atomic<uint64_t> daemon_cycles_{0};
  std::atomic<uint64_t> db_merges_{0};
  std::atomic<uint64_t> db_write_retries_{0};
  std::atomic<uint64_t> db_write_failures_{0};
  std::atomic<uint64_t> epoch_rolls_{0};
  std::atomic<uint64_t> timed_flushes_{0};
  std::atomic<uint64_t> ingest_groups_{0};
  std::atomic<uint64_t> wide_records_{0};
  mutable std::atomic<uint64_t> staging_drains_{0};  // bumped from read paths

  std::thread drain_thread_;
  std::atomic<bool> drain_stop_{false};
};

}  // namespace dcpi

#endif  // SRC_DAEMON_DAEMON_H_
