// Fleet view over sharded profile databases ("many hosts, one database").
//
// A fleet root holds one profile database per host:
//   <fleet_root>/host_<id>/epoch_<k>/<image>__<event>.prof
// Each shard is an ordinary ProfileDatabase written by that host's daemon
// (dcpi_sim --fleet runs N such instances); a FleetView opens every shard
// read-only and serves fleet-wide reads by merge-on-read: per-host profiles
// are folded across epochs (ProfileDatabase::ReadMerged, the one epoch
// fold), then across hosts into one fleet profile with a sample-weighted
// mean period. A plain database opens as a one-shard view, so the reader
// tools have one read path for a host and for a fleet.
//
// Determinism: hosts are always iterated in ascending numeric id order, and
// the cross-host period fold sorts its (period, weight) contributions by
// value before accumulating — so the merged profile is byte-identical no
// matter which host held which shard, how directories enumerate, or how
// many worker threads fan the reads out. Sample counts are integer adds and
// commute exactly.
//
// Compaction: CompactFleet materializes the merge-on-read result as a
// regular ProfileDatabase (same epoch numbering, one merged file per
// (image, event) pair, sealed epochs) using the existing atomic-write + CRC
// path — so the plain single-database tools can read a fleet that was
// compacted once, byte-for-byte equal to what --fleet merge-on-read would
// have shown them. Each compacted epoch's .provenance sidecar is the fleet's
// one record of which host contributed how many samples.

#ifndef SRC_PROFILEDB_FLEET_H_
#define SRC_PROFILEDB_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/profiledb/database.h"

namespace dcpi {

// The directory name of host `id`'s shard under a fleet root, "host_<id>":
// the one spelling FleetView counts (ParseNumberedName), so a padded
// "host_01" is never a shard.
std::string FleetHostDir(uint32_t id);

class FleetView {
 public:
  // Opens every host_<id> shard under `fleet_root` read-only, in ascending
  // numeric id order. A fleet with zero shards is reported via num_hosts()
  // == 0, not an exception, so tools can print a usage-grade error.
  explicit FleetView(std::string fleet_root);
  // Opens the plain database at `db_root` read-only as a one-shard view
  // (its one host name is `db_root`). Reads through it are bit-exact reads
  // of the database.
  static FleetView SingleShard(std::string db_root);

  const std::string& root() const { return root_; }
  size_t num_hosts() const { return hosts_.size(); }
  const std::vector<std::string>& host_names() const { return host_names_; }
  const ProfileDatabase& host(size_t i) const { return *hosts_[i]; }

  // Union of epochs across shards, ascending.
  std::vector<uint32_t> ListEpochs() const;
  // Epochs that are sealed on *every* shard that has them: a shard still
  // writing epoch K makes the fleet-wide merge of K unstable, so it is not
  // offered as a default merge unit.
  std::vector<uint32_t> ListSealedEpochs() const;

  // Merge-on-read: folds the (image, event) profile across `epochs` per
  // host (ProfileDatabase::ReadMerged: ascending, unreadable files
  // skipped), then across hosts. A single contributing host's profile is
  // returned bit-exact, so a 1-host fleet reads identically to its shard.
  // NotFound if no shard has a readable profile in any requested epoch.
  Result<ImageProfile> ReadProfile(const std::vector<uint32_t>& epochs,
                                   const std::string& image_name,
                                   EventType event) const;

 private:
  FleetView() = default;

  std::string root_;
  std::vector<std::string> host_names_;           // ascending numeric id
  std::vector<std::unique_ptr<ProfileDatabase>> hosts_;  // same order
};

// Materializes fleet merge-on-read into `out`, a regular ProfileDatabase
// open read-write (a caller that compacts repeatedly keeps one open, so
// the writer's recovery scan runs once): for each requested epoch, every
// shard's profiles are read, grouped by (image, event), merged as
// ReadProfile merges, written through the atomic-write/CRC path under the
// same epoch number, recorded in an epoch_<k>/.provenance sidecar (one
// "host_<id> <samples>" line per contributing host), and sealed. Reads fan out over `jobs` worker
// threads; output bytes are identical for any jobs count. Epochs already
// sealed in the output database are skipped, so the pass is incremental
// and restartable.
Status CompactFleet(const FleetView& fleet, ProfileDatabase* out,
                    const std::vector<uint32_t>& epochs, int jobs = 0);

}  // namespace dcpi

#endif  // SRC_PROFILEDB_FLEET_H_
