#include "src/workloads/session.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "src/isa/image_io.h"
#include "src/profiledb/fleet.h"

namespace dcpi {

namespace {

Status WithContext(const std::string& what, const Status& status) {
  return Status(status.code(), what + ": " + status.message());
}

Status SaveImages(System& system, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return IoError("cannot create " + dir + ": " + ec.message());
  int index = 0;
  for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
    std::string path = dir + "/image_" + std::to_string(index++) + ".img";
    Status saved = SaveImage(*truth.image, path);
    if (!saved.ok()) return WithContext("cannot save image", saved);
  }
  return Status::Ok();
}

Status RunSegments(System* system, const Workload& workload, const SessionPlan& plan,
                   SessionResult* session) {
  for (uint32_t segment = 0; segment < plan.segments; ++segment) {
    Status status = workload.Instantiate(system);
    if (!status.ok()) return WithContext("instantiate failed", status);
    if (segment == 0 && !plan.images_dir.empty()) {
      DCPI_RETURN_IF_ERROR(SaveImages(*system, plan.images_dir));
    }
    uint64_t cap = plan.segment_cycles == 0
                       ? ~0ull
                       : system->kernel().ElapsedCycles() + plan.segment_cycles;
    session->result = system->Run(cap);
    if (session->result.had_error) {
      return Internal("a workload process faulted in segment " +
                      std::to_string(segment));
    }
    if (plan.roll_between_segments && segment + 1 < plan.segments) {
      auto start = std::chrono::steady_clock::now();
      Status rolled = system->RollEpoch();
      session->roll_ms.push_back(std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
      if (!rolled.ok()) return WithContext("epoch roll failed", rolled);
    }
  }
  Status sealed = system->SealCurrentEpoch();
  return sealed.ok() ? sealed : WithContext("seal failed", sealed);
}

// Epochs sealed on every host of the fleet: present everywhere, open
// nowhere. Stricter than FleetView::ListSealedEpochs (which accepts epochs
// a lagging host has not created yet): the mid-run compactor must not
// materialize and permanently seal an epoch a host is still going to
// write.
std::vector<uint32_t> SealedOnAllHosts(const FleetView& fleet) {
  std::vector<uint32_t> result;
  if (fleet.num_hosts() == 0) return result;
  for (uint32_t epoch : fleet.ListSealedEpochs()) {
    bool everywhere = true;
    for (size_t h = 0; h < fleet.num_hosts(); ++h) {
      if (!fleet.host(h).IsSealed(epoch)) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) result.push_back(epoch);
  }
  return result;
}

}  // namespace

SessionResult RunSession(System* system, const Workload& workload,
                         const SessionPlan& plan) {
  SessionResult session;
  session.status = RunSegments(system, workload, plan, &session);
  if (const ProfileDatabase* db = system->database(); db != nullptr) {
    session.epochs = db->ListEpochs().size();
    session.sealed = db->ListSealedEpochs().size();
  }
  return session;
}

FleetResult RunFleet(const SystemConfig& config, const Workload& workload,
                     const SessionPlan& plan, uint32_t hosts, bool compact) {
  const std::string& root = config.db_root;
  FleetResult fleet;
  fleet.hosts.resize(hosts);

  // Concurrency invariants of the fleet run (no locks needed):
  //  * Each host thread writes only fleet.hosts[h] and its own shard
  //    (host_<h>/); shards are disjoint directories, results are disjoint
  //    elements, and the caller reads them only after join(), which is a
  //    full happens-before edge.
  //  * The compactor communicates with the host threads purely through
  //    the filesystem (sealed-epoch markers written via the atomic
  //    rename+CRC path), never through shared memory. It alone writes
  //    fleet.compaction, read after its join().
  //  * hosts_done is a release store after every host join; the
  //    compactor's acquire load therefore observes all final seal markers
  //    before its last full compaction pass.
  std::atomic<bool> hosts_done{false};
  std::thread compactor;
  if (compact) {
    compactor = std::thread([&] {
      const std::string merged_root = root + "/merged";
      while (!hosts_done.load(std::memory_order_acquire)) {
        // A failed background pass needs no report: the last pass retries
        // every epoch it left unsealed.
        FleetView view(root);
        if (view.num_hosts() == hosts) {  // else shards are still appearing
          (void)CompactFleet(view, merged_root, SealedOnAllHosts(view));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      FleetView view(root);
      fleet.compaction = CompactFleet(view, merged_root, view.ListSealedEpochs());
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(hosts);
  for (uint32_t h = 0; h < hosts; ++h) {
    threads.emplace_back([&, h] {
      SystemConfig host_config = config;
      host_config.db_root = root + "/" + FleetHostDir(h);
      host_config.rng_seed = 1 + h;
      SessionPlan host_plan = plan;
      if (h != 0) host_plan.images_dir.clear();
      System system(host_config);
      fleet.hosts[h] = RunSession(&system, workload, host_plan);
    });
  }
  for (std::thread& t : threads) t.join();
  hosts_done.store(true, std::memory_order_release);
  if (compactor.joinable()) compactor.join();
  return fleet;
}

}  // namespace dcpi
