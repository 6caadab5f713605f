// On-disk profile database (Section 4.3.3).
//
// Layout: <root>/epoch_<N>/<image>__<event>.prof, one compact binary file
// per (image, event) pair per epoch. Offsets are delta-encoded varints, so
// profiles are typically an order of magnitude smaller than their images
// (most instructions never execute); this is the paper's "improved format"
// with ~3x compression over fixed-width records.
//
// Durability: profile files are written with WriteFileAtomic (temp + fsync
// + rename) and carry a CRC32 trailer (version 3, or version 4 when the
// profile has a memory axis); no other version is read. An epoch_<N>/
// directory appears with the epoch's first profile write.
// Opening a database read-write is the writer's recovery: it scans the
// existing epoch_* directories, validates every profile file, quarantines
// corrupt, other-version or in-flight files to epoch_<N>/.quarantine/, and
// resumes epoch numbering at max + 1 so a new run never merges into a
// previous run's epochs. The scan's outcome is exposed as a ScanReport.
//
// Continuous operation: the writing daemon seals an epoch when its load
// maps change (or on a timed roll) by atomically writing an epoch_<N>/
// .sealed marker before advancing to the next epoch. A sealed epoch is
// immutable, so analysis tools opened in kReadOnly mode get snapshot-
// consistent reads of every sealed epoch while collection continues in
// the live (unsealed) one. A read-only open reads nothing: each profile
// is read, and its CRC checked, when a reader asks for it. It never
// creates directories, never quarantines, and treats in-flight .tmp files
// as invisible.

#ifndef SRC_PROFILEDB_DATABASE_H_
#define SRC_PROFILEDB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/profiledb/profile.h"
#include "src/support/mutex.h"
#include "src/support/status.h"

namespace dcpi {

// Serialization (exposed for tests and size experiments). SerializeProfile
// emits version 3 (varint body + CRC32 trailer), or version 4 (version 3
// plus a memory section) when the profile has a memory axis.
// DeserializeProfile reads only those two versions; it verifies the
// checksum and rejects trailing bytes.
std::vector<uint8_t> SerializeProfile(const ImageProfile& profile);
Result<ImageProfile> DeserializeProfile(const std::vector<uint8_t>& bytes);

// Fixed-width (non-delta, non-varint) version-1 encoding: the paper's
// original format baseline for the compression comparison. Write-only:
// DeserializeProfile rejects it.
std::vector<uint8_t> SerializeProfileFixedWidth(const ImageProfile& profile);

// kReadWrite is the writer: the open runs the recovery scan, which
// quarantines and resumes epoch numbering. kReadOnly is for analysis tools
// reading a database another process may still be writing: the open reads
// nothing, and there is no directory creation, no quarantine or renames,
// in-flight .tmp files are invisible, and every mutating call fails.
enum class DbOpenMode { kReadWrite, kReadOnly };

// Outcome of the recovery scan a read-write open runs (all zero for a
// read-only open, which does not scan).
struct ScanReport {
  uint32_t epochs_found = 0;
  uint32_t next_epoch = 0;         // where the next NewEpoch/write lands
  uint64_t files_checked = 0;      // .prof files validated
  uint64_t files_recovered = 0;    // valid profiles retained
  uint64_t files_quarantined = 0;  // corrupt or in-flight files set aside
};

class ProfileDatabase {
 public:
  // Opens the database at `root_dir`. In kReadWrite mode the root is
  // created if needed and the recovery scan runs; see scan_report() for
  // what it found.
  explicit ProfileDatabase(std::string root_dir,
                           DbOpenMode mode = DbOpenMode::kReadWrite);

  // Moves the write cursor to a new epoch and returns its index; the
  // epoch's directory appears with its first ReplaceProfile.
  //
  // Thread safety: the epoch cursor (current_epoch/NewEpoch) and all
  // writes are serialized by an internal mutex, so a concurrent timed
  // flush and an epoch roll cannot race on the epoch state. The database
  // still assumes a single *logical* writer per epoch (the daemon):
  // ReplaceProfile overwrites, so two writers would lose samples.
  Result<uint32_t> NewEpoch();
  uint32_t current_epoch() const;
  // True once an epoch has been opened (by NewEpoch or a first write).
  bool has_open_epoch() const;

  // Points the write cursor at a specific epoch (its directory appears with
  // its first ReplaceProfile), for writers that mirror an external epoch
  // numbering — the fleet compactor materializes host epoch K of every
  // shard as epoch K of the merged database. Refuses sealed epochs (they
  // are immutable).
  Result<uint32_t> OpenEpoch(uint32_t epoch);

  // Overwrites the on-disk file for the current epoch (opening the next
  // epoch if none is open yet, and creating its directory) with `profile`.
  // This is the database's one write: the daemon keeps each epoch's
  // cumulative profile in memory, so periodic flushes of the same epoch
  // replace rather than re-merge, and the fleet compactor writes each
  // merged profile once. The write is atomic: on any failure the previous
  // file contents remain intact.
  Status ReplaceProfile(const ImageProfile& profile);

  Result<ImageProfile> ReadProfile(uint32_t epoch, const std::string& image_name,
                                   EventType event) const;

  // The one epoch fold every reader uses: the (image, event) profile of
  // each of `epochs`, merged in ascending epoch order. An epoch whose read
  // fails (no file, bad checksum, truncation) is skipped, as fleet
  // compaction skips an unreadable file. NotFound if no epoch has a
  // readable profile.
  Result<ImageProfile> ReadMerged(std::vector<uint32_t> epochs,
                                  const std::string& image_name,
                                  EventType event) const;

  // All (image, event) profile files in an epoch (quarantined and in-flight
  // files excluded).
  Result<std::vector<std::string>> ListProfiles(uint32_t epoch) const;

  // ---- Sealed-epoch lifecycle ----

  // Atomically writes epoch_<N>/.sealed, marking the epoch immutable.
  // `at_cycles` records the simulated seal time in the marker.
  Status SealEpoch(uint32_t epoch, uint64_t at_cycles = 0);
  // Seals the epoch the cursor points at (error if no epoch is open yet).
  Status SealCurrentEpoch(uint64_t at_cycles = 0);
  bool IsSealed(uint32_t epoch) const;

  // Fresh directory scans (not cached), ascending: every epoch present,
  // and the subset carrying a .sealed marker. Concurrent readers poll
  // ListSealedEpochs to grow their consistent prefix while the writer
  // rolls.
  std::vector<uint32_t> ListEpochs() const;
  std::vector<uint32_t> ListSealedEpochs() const;

  uint64_t DiskUsageBytes() const;

  // Profile bytes this handle has written (serialized sizes, including
  // re-flushes that overwrite a file). The ingest benchmarks read this for
  // MB/s accounting; unlike DiskUsageBytes it counts every write, not just
  // the surviving files.
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  const std::string& root() const { return root_; }
  DbOpenMode mode() const { return mode_; }
  const ScanReport& scan_report() const { return scan_report_; }

  // The result-cache directory the analysis engine uses for an epoch.
  std::string EpochCacheDir(uint32_t epoch) const;

  // File name for an (image, event) pair. '_' escapes to "__" and '/' to
  // "_s", so distinct image names never collide ("a/b" vs "a_b").
  static std::string ProfileFileName(const std::string& image_name, EventType event);

 private:
  std::string EpochDir(uint32_t epoch) const;
  std::string SealMarkerPath(uint32_t epoch) const;
  // Moves the epoch cursor to `epoch` and returns it.
  uint32_t EnterEpoch(uint32_t epoch) REQUIRES(mu_);
  // The writer's recovery scan (read-write opens only).
  ScanReport ScanAndRecover() const;

  std::string root_;
  DbOpenMode mode_ = DbOpenMode::kReadWrite;
  ScanReport scan_report_;

  // Guards the epoch cursor and serializes writes (see NewEpoch). Nests
  // inside the daemon's flush lock (the daemon flushes under flush_mu_),
  // never the other way around.
  mutable Mutex mu_{LockRank::kProfileDb, "profiledb.epoch"};
  uint32_t current_epoch_ GUARDED_BY(mu_) = 0;
  uint32_t next_epoch_ GUARDED_BY(mu_) = 0;  // first epoch a fresh write lands in
  bool have_epoch_ GUARDED_BY(mu_) = false;
  // Monotone statistics counter (relaxed adds under mu_, lock-free reads
  // from bytes_written()); no ordering is implied or needed.
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace dcpi

#endif  // SRC_PROFILEDB_DATABASE_H_
