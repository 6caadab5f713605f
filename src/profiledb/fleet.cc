#include "src/profiledb/fleet.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "src/support/binary_io.h"
#include "src/support/parse.h"
#include "src/support/parallel_for.h"

namespace dcpi {

namespace {

constexpr std::string_view kHostDirPrefix = "host_";

// host_<id> directory names under `root`, sorted by numeric id (so host_2
// precedes host_10 — lexicographic order would interleave the fleet).
std::vector<std::string> ListHostDirs(const std::string& root) {
  std::vector<std::pair<uint32_t, std::string>> hosts;
  std::error_code ec;
  std::filesystem::directory_iterator it(root, ec);
  if (ec) return {};
  for (const auto& entry : it) {
    if (!entry.is_directory()) continue;
    std::string name = entry.path().filename().string();
    uint32_t id = 0;
    if (ParseNumberedName(name, kHostDirPrefix, &id)) hosts.emplace_back(id, std::move(name));
  }
  std::sort(hosts.begin(), hosts.end());
  std::vector<std::string> names;
  names.reserve(hosts.size());
  for (auto& h : hosts) names.push_back(std::move(h.second));
  return names;
}

}  // namespace

std::string FleetHostDir(uint32_t id) {
  return std::string(kHostDirPrefix) + std::to_string(id);
}

FleetView::FleetView(std::string fleet_root) : root_(std::move(fleet_root)) {
  host_names_ = ListHostDirs(root_);
  hosts_.reserve(host_names_.size());
  for (const std::string& name : host_names_) {
    hosts_.push_back(std::make_unique<ProfileDatabase>(root_ + "/" + name,
                                                       DbOpenMode::kReadOnly));
  }
}

FleetView FleetView::SingleShard(std::string db_root) {
  FleetView view;
  view.root_ = std::move(db_root);
  view.host_names_ = {view.root_};
  view.hosts_.push_back(
      std::make_unique<ProfileDatabase>(view.root_, DbOpenMode::kReadOnly));
  return view;
}

std::vector<uint32_t> FleetView::ListEpochs() const {
  std::set<uint32_t> epochs;
  for (const auto& host : hosts_) {
    for (uint32_t e : host->ListEpochs()) epochs.insert(e);
  }
  return std::vector<uint32_t>(epochs.begin(), epochs.end());
}

std::vector<uint32_t> FleetView::ListSealedEpochs() const {
  // Per epoch: did any shard expose it, and did any shard expose it open?
  std::map<uint32_t, bool> open_somewhere;
  for (const auto& host : hosts_) {
    std::vector<uint32_t> sealed = host->ListSealedEpochs();
    std::set<uint32_t> sealed_set(sealed.begin(), sealed.end());
    for (uint32_t e : host->ListEpochs()) {
      open_somewhere[e] = open_somewhere[e] || sealed_set.count(e) == 0;
    }
  }
  std::vector<uint32_t> result;
  for (const auto& [epoch, open] : open_somewhere) {
    if (!open) result.push_back(epoch);
  }
  return result;
}

namespace {

// Folds per-host profiles for one (image, event) pair into a fleet profile.
// `parts` must be in ascending host order and non-empty.
ImageProfile MergeHostProfiles(const std::vector<const ImageProfile*>& parts) {
  if (parts.size() == 1) {
    // Bit-exact passthrough: a 1-host fleet must read identically to its
    // shard, which a (period * weight) / weight round-trip would not give.
    return *parts[0];
  }

  const ImageProfile& first = *parts[0];
  ImageProfile merged(first.image_name(), first.event(), first.mean_period());
  // (mean_period, weight) per host. Summed in sorted order so the merged
  // period is bit-identical under any permutation of hosts; the counts
  // below are integer adds and commute exactly on their own.
  std::vector<std::pair<double, double>> period_contribs;
  period_contribs.reserve(parts.size());
  double total_weight = 0;
  for (const ImageProfile* profile : parts) {
    for (const auto& [offset, count] : profile->counts()) {
      merged.AddSamples(offset, count);
    }
    // The data-line axis is pure integer counters and masks: a plain
    // commutative merge, no period weighting involved.
    merged.mutable_mem()->Merge(profile->mem());
    double weight = static_cast<double>(profile->total_samples());
    period_contribs.emplace_back(profile->mean_period(), weight);
    total_weight += weight;
  }
  std::sort(period_contribs.begin(), period_contribs.end());
  double weighted_sum = 0;
  for (const auto& [period, weight] : period_contribs) {
    weighted_sum += period * weight;
  }
  if (total_weight > 0) {
    merged.set_mean_period(weighted_sum / total_weight);
  } else {
    // Every shard's profile is empty (sealed-but-idle epochs): fall back to
    // the unweighted mean of the configured periods so the result stays
    // finite instead of dividing 0 by 0.
    double period_sum = 0;
    for (const auto& [period, weight] : period_contribs) {
      (void)weight;
      period_sum += period;
    }
    merged.set_mean_period(period_sum / static_cast<double>(parts.size()));
  }
  return merged;
}

}  // namespace

Result<ImageProfile> FleetView::ReadProfile(const std::vector<uint32_t>& epochs,
                                            const std::string& image_name,
                                            EventType event) const {
  // Each host folds its own epochs first, then one cross-host merge.
  std::vector<ImageProfile> host_profiles;
  for (const auto& host : hosts_) {
    Result<ImageProfile> folded = host->ReadMerged(epochs, image_name, event);
    if (folded.ok()) host_profiles.push_back(std::move(folded).value());
  }
  if (host_profiles.empty()) {
    return NotFound("no " + std::string(EventTypeName(event)) + " profile for " +
                    image_name);
  }
  std::vector<const ImageProfile*> parts;
  parts.reserve(host_profiles.size());
  for (const ImageProfile& profile : host_profiles) parts.push_back(&profile);
  return MergeHostProfiles(parts);
}

Status CompactFleet(const FleetView& fleet, const std::string& out_root,
                    const std::vector<uint32_t>& epochs, int jobs) {
  if (fleet.num_hosts() == 0) {
    return InvalidArgument("no host_<id> shards under " + fleet.root());
  }
  ProfileDatabase out(out_root);

  for (uint32_t epoch : epochs) {
    // Sealed output epochs are finished work from an earlier pass.
    if (out.IsSealed(epoch)) continue;

    // Every (host, file) pair for this epoch, host-major so the grouping
    // below sees hosts in ascending order.
    struct ReadTask {
      size_t host_index;
      std::string path;
    };
    std::vector<ReadTask> tasks;
    for (size_t i = 0; i < fleet.num_hosts(); ++i) {
      Result<std::vector<std::string>> files = fleet.host(i).ListProfiles(epoch);
      if (!files.ok()) continue;  // shard never opened this epoch
      for (const std::string& file : files.value()) {
        tasks.push_back(ReadTask{i, fleet.host(i).root() + "/epoch_" +
                                        std::to_string(epoch) + "/" + file});
      }
    }
    if (tasks.empty()) continue;

    // Parallel read + deserialize into index-addressed slots: the fill
    // order does not depend on thread scheduling, so neither do the
    // merged bytes.
    std::vector<Result<ImageProfile>> slots(tasks.size(),
                                            IoError("not read"));
    ParallelFor(jobs, tasks.size(), [&](size_t index, int /*worker*/) {
      std::vector<uint8_t> bytes;
      Status read = ReadFile(tasks[index].path, &bytes);
      if (!read.ok()) {
        slots[index] = read;
        return;
      }
      slots[index] = DeserializeProfile(bytes);
    });

    // Group by (image, event) across hosts. Filenames cannot be parsed back
    // into image names unambiguously (escaping), so the grouping key comes
    // from the deserialized payload. Unreadable files are skipped, as
    // ReadMerged skips them, so compaction writes what merge-on-read shows.
    std::map<std::pair<std::string, EventType>, std::vector<size_t>> groups;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].ok()) continue;
      const ImageProfile& profile = slots[i].value();
      groups[{profile.image_name(), profile.event()}].push_back(i);
    }
    if (groups.empty()) continue;

    Result<uint32_t> opened = out.OpenEpoch(epoch);
    if (!opened.ok()) return opened.status();

    // Per-host sample totals for the epoch's .provenance sidecar.
    std::map<size_t, uint64_t> host_samples;
    for (const auto& [key, indices] : groups) {
      (void)key;
      std::vector<const ImageProfile*> parts;
      parts.reserve(indices.size());
      for (size_t i : indices) {
        parts.push_back(&slots[i].value());
        host_samples[tasks[i].host_index] +=
            slots[i].value().total_samples();
      }
      DCPI_RETURN_IF_ERROR(out.ReplaceProfile(MergeHostProfiles(parts)));
    }

    std::string provenance;
    for (const auto& [host_index, samples] : host_samples) {
      provenance += fleet.host_names()[host_index] + " " +
                    std::to_string(samples) + "\n";
    }
    std::vector<uint8_t> provenance_bytes(provenance.begin(), provenance.end());
    DCPI_RETURN_IF_ERROR(WriteFileAtomic(
        out_root + "/epoch_" + std::to_string(epoch) + "/.provenance",
        provenance_bytes));
    DCPI_RETURN_IF_ERROR(out.SealEpoch(epoch));
  }
  return Status::Ok();
}

}  // namespace dcpi
